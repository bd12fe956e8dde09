// Package geo provides the geographic resolution the measurement study
// depends on: mapping peer IP addresses to coarse regions (North America,
// Europe, Asia, Other) and sampling plausible addresses for synthetic peers
// in a given region.
//
// The paper resolved peers with the MaxMind GeoIP database; only
// continent-level resolution is ever used by the analysis, so this package
// substitutes a deterministic synthetic registry: a fixed set of IPv4 CIDR
// blocks assigned to each region, loosely following the historical RIR
// allocations (ARIN, RIPE, APNIC). Lookup is a binary search over sorted
// ranges; sampling draws a uniform address from the region's blocks.
package geo

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"sort"
)

// Region is a coarse geographic region, the unit at which the paper
// conditions its workload measures.
type Region uint8

// Regions in the order the paper discusses them. Unknown is used for
// addresses that fall outside the registry (the paper's "unknown origin"
// 5–10% bucket folds into Other for our purposes, but lookups of unassigned
// space still need a value).
const (
	NorthAmerica Region = iota
	Europe
	Asia
	Other
	Unknown
	numRegions
)

// NumRegions is the number of assignable regions (excluding Unknown).
const NumRegions = int(numRegions) - 1

// Regions lists the assignable regions in canonical order.
var Regions = [NumRegions]Region{NorthAmerica, Europe, Asia, Other}

// NumContinental is the number of regions the paper characterizes in
// depth. They are Regions 0 through NumContinental-1, so per-region tables
// of the characterization index by Region directly.
const NumContinental = 3

// Continental lists the three regions the paper characterizes in depth.
var Continental = [NumContinental]Region{NorthAmerica, Europe, Asia}

func (r Region) String() string {
	switch r {
	case NorthAmerica:
		return "North America"
	case Europe:
		return "Europe"
	case Asia:
		return "Asia"
	case Other:
		return "Other"
	case Unknown:
		return "Unknown"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// Short returns a compact tag used in report column headers.
func (r Region) Short() string {
	switch r {
	case NorthAmerica:
		return "NA"
	case Europe:
		return "EU"
	case Asia:
		return "AS"
	case Other:
		return "OT"
	default:
		return "??"
	}
}

// block is a contiguous IPv4 range [lo, hi] assigned to a region.
type block struct {
	lo, hi uint32
	region Region
}

// Registry resolves IPv4 addresses to regions and samples addresses from
// regions. It is immutable after construction and safe for concurrent use.
type Registry struct {
	blocks   []block            // sorted by lo, non-overlapping
	byRegion [numRegions][]int  // indexes into blocks
	sizes    [numRegions]uint64 // total addresses per region
}

// cidr is a compact literal form for the default table.
type cidr struct {
	prefix string
	region Region
}

// defaultAllocations approximates early-2000s RIR allocations at /8
// granularity. The exact prefixes are irrelevant to the study — only that
// the mapping is deterministic, covers disjoint space per region, and gives
// each region enough addresses that millions of sessions draw mostly
// distinct peers.
var defaultAllocations = []cidr{
	// ARIN / North America.
	{"3.0.0.0/8", NorthAmerica}, {"4.0.0.0/8", NorthAmerica},
	{"6.0.0.0/8", NorthAmerica}, {"7.0.0.0/8", NorthAmerica},
	{"8.0.0.0/8", NorthAmerica}, {"9.0.0.0/8", NorthAmerica},
	{"12.0.0.0/8", NorthAmerica}, {"13.0.0.0/8", NorthAmerica},
	{"15.0.0.0/8", NorthAmerica}, {"16.0.0.0/8", NorthAmerica},
	{"17.0.0.0/8", NorthAmerica}, {"18.0.0.0/8", NorthAmerica},
	{"19.0.0.0/8", NorthAmerica}, {"20.0.0.0/8", NorthAmerica},
	{"63.0.0.0/8", NorthAmerica}, {"64.0.0.0/8", NorthAmerica},
	{"65.0.0.0/8", NorthAmerica}, {"66.0.0.0/8", NorthAmerica},
	{"67.0.0.0/8", NorthAmerica}, {"68.0.0.0/8", NorthAmerica},
	{"69.0.0.0/8", NorthAmerica}, {"70.0.0.0/8", NorthAmerica},
	{"71.0.0.0/8", NorthAmerica}, {"72.0.0.0/8", NorthAmerica},
	{"142.0.0.0/8", NorthAmerica}, {"198.0.0.0/8", NorthAmerica},
	{"204.0.0.0/8", NorthAmerica}, {"205.0.0.0/8", NorthAmerica},
	{"206.0.0.0/8", NorthAmerica}, {"207.0.0.0/8", NorthAmerica},
	{"208.0.0.0/8", NorthAmerica}, {"209.0.0.0/8", NorthAmerica},
	// RIPE / Europe.
	{"62.0.0.0/8", Europe}, {"77.0.0.0/8", Europe},
	{"78.0.0.0/8", Europe}, {"79.0.0.0/8", Europe},
	{"80.0.0.0/8", Europe}, {"81.0.0.0/8", Europe},
	{"82.0.0.0/8", Europe}, {"83.0.0.0/8", Europe},
	{"84.0.0.0/8", Europe}, {"85.0.0.0/8", Europe},
	{"86.0.0.0/8", Europe}, {"87.0.0.0/8", Europe},
	{"88.0.0.0/8", Europe}, {"193.0.0.0/8", Europe},
	{"194.0.0.0/8", Europe}, {"195.0.0.0/8", Europe},
	{"212.0.0.0/8", Europe}, {"213.0.0.0/8", Europe},
	{"217.0.0.0/8", Europe},
	// APNIC / Asia.
	{"58.0.0.0/8", Asia}, {"59.0.0.0/8", Asia},
	{"60.0.0.0/8", Asia}, {"61.0.0.0/8", Asia},
	{"110.0.0.0/8", Asia}, {"111.0.0.0/8", Asia},
	{"112.0.0.0/8", Asia}, {"113.0.0.0/8", Asia},
	{"114.0.0.0/8", Asia}, {"115.0.0.0/8", Asia},
	{"116.0.0.0/8", Asia}, {"117.0.0.0/8", Asia},
	{"118.0.0.0/8", Asia}, {"119.0.0.0/8", Asia},
	{"120.0.0.0/8", Asia}, {"121.0.0.0/8", Asia},
	{"202.0.0.0/8", Asia}, {"203.0.0.0/8", Asia},
	{"210.0.0.0/8", Asia}, {"211.0.0.0/8", Asia},
	{"218.0.0.0/8", Asia}, {"219.0.0.0/8", Asia},
	{"220.0.0.0/8", Asia}, {"221.0.0.0/8", Asia},
	// Other (LACNIC, AfriNIC, Oceania).
	{"139.0.0.0/8", Other}, {"143.0.0.0/8", Other},
	{"146.0.0.0/8", Other}, {"155.0.0.0/8", Other},
	{"163.0.0.0/8", Other}, {"186.0.0.0/8", Other},
	{"187.0.0.0/8", Other}, {"189.0.0.0/8", Other},
	{"190.0.0.0/8", Other}, {"196.0.0.0/8", Other},
	{"200.0.0.0/8", Other}, {"201.0.0.0/8", Other},
}

var std = mustRegistry(defaultAllocations)

// Default returns the shared built-in registry.
func Default() *Registry { return std }

func mustRegistry(allocs []cidr) *Registry {
	r, err := NewRegistry(allocs)
	if err != nil {
		panic(err)
	}
	return r
}

// NewRegistry builds a registry from CIDR allocations. Prefixes must be
// valid IPv4 CIDRs and must not overlap.
func NewRegistry(allocs []cidr) (*Registry, error) {
	r := &Registry{blocks: make([]block, 0, len(allocs))}
	for _, a := range allocs {
		p, err := netip.ParsePrefix(a.prefix)
		if err != nil {
			return nil, fmt.Errorf("geo: bad prefix %q: %w", a.prefix, err)
		}
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("geo: prefix %q is not IPv4", a.prefix)
		}
		lo := binary.BigEndian.Uint32(p.Masked().Addr().AsSlice())
		size := uint32(1) << (32 - p.Bits())
		r.blocks = append(r.blocks, block{lo: lo, hi: lo + size - 1, region: a.region})
	}
	sort.Slice(r.blocks, func(i, j int) bool { return r.blocks[i].lo < r.blocks[j].lo })
	for i := 1; i < len(r.blocks); i++ {
		if r.blocks[i].lo <= r.blocks[i-1].hi {
			return nil, fmt.Errorf("geo: overlapping blocks at %d", i)
		}
	}
	for i, b := range r.blocks {
		r.byRegion[b.region] = append(r.byRegion[b.region], i)
		r.sizes[b.region] += uint64(b.hi-b.lo) + 1
	}
	return r, nil
}

// Lookup resolves an IPv4 address to its region. Addresses outside the
// registry resolve to Unknown; non-IPv4 addresses resolve to Unknown.
func (r *Registry) Lookup(a netip.Addr) Region {
	if a.Is4In6() {
		a = a.Unmap()
	}
	if !a.Is4() {
		return Unknown
	}
	v := binary.BigEndian.Uint32(a.AsSlice())
	i := sort.Search(len(r.blocks), func(i int) bool { return r.blocks[i].hi >= v })
	if i < len(r.blocks) && r.blocks[i].lo <= v && v <= r.blocks[i].hi {
		return r.blocks[i].region
	}
	return Unknown
}

// Sample draws a uniform random address from the region's allocated space.
// Sampling from Unknown returns an address from reserved space (240/8) that
// the registry will resolve back to Unknown.
func (r *Registry) Sample(region Region, rng *rand.Rand) netip.Addr {
	if !r.allocated(region) {
		return u32ToAddr(0xF0000000 + uint32(rng.Uint64N(1<<24)))
	}
	n := rng.Uint64N(r.sizes[region])
	for _, bi := range r.byRegion[region] {
		b := r.blocks[bi]
		size := uint64(b.hi-b.lo) + 1
		if n < size {
			return u32ToAddr(b.lo + uint32(n))
		}
		n -= size
	}
	// Unreachable: n < sizes[region] guarantees a block is found.
	panic("geo: sample fell off the end of the region's blocks")
}

// SkipSample advances rng exactly as Sample does for the region, without
// finding the address: for callers that drop the address but must keep
// the random stream. Uint64N's rejection loop draws a number of values
// that depends on the bound, so the bound is Sample's own.
func (r *Registry) SkipSample(region Region, rng *rand.Rand) {
	if !r.allocated(region) {
		rng.Uint64N(1 << 24)
		return
	}
	rng.Uint64N(r.sizes[region])
}

// allocated reports whether Sample draws the region's addresses from its
// own blocks, not from reserved space.
func (r *Registry) allocated(region Region) bool {
	return region < numRegions && region != Unknown && r.sizes[region] != 0
}

func u32ToAddr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// Size returns the number of addresses allocated to the region.
func (r *Registry) Size(region Region) uint64 {
	if region >= numRegions {
		return 0
	}
	return r.sizes[region]
}
