package geo

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestRegionStrings(t *testing.T) {
	cases := []struct {
		r     Region
		long  string
		short string
	}{
		{NorthAmerica, "North America", "NA"},
		{Europe, "Europe", "EU"},
		{Asia, "Asia", "AS"},
		{Other, "Other", "OT"},
		{Unknown, "Unknown", "??"},
	}
	for _, c := range cases {
		if c.r.String() != c.long {
			t.Errorf("String(%d) = %q, want %q", c.r, c.r.String(), c.long)
		}
		if c.r.Short() != c.short {
			t.Errorf("Short(%d) = %q, want %q", c.r, c.r.Short(), c.short)
		}
	}
}

func TestLookupKnownBlocks(t *testing.T) {
	r := Default()
	cases := []struct {
		ip   string
		want Region
	}{
		{"64.12.45.7", NorthAmerica},
		{"208.255.255.255", NorthAmerica},
		{"80.128.1.1", Europe},
		{"217.0.0.1", Europe},
		{"193.99.144.80", Europe},
		{"61.5.5.5", Asia},
		{"220.181.0.1", Asia},
		{"200.1.2.3", Other},
		{"196.25.1.1", Other},
		{"127.0.0.1", Unknown},
		{"10.0.0.1", Unknown},
		{"255.255.255.255", Unknown},
		{"0.0.0.1", Unknown},
	}
	for _, c := range cases {
		got := r.Lookup(netip.MustParseAddr(c.ip))
		if got != c.want {
			t.Errorf("Lookup(%s) = %v, want %v", c.ip, got, c.want)
		}
	}
}

func TestLookupIPv6(t *testing.T) {
	r := Default()
	if got := r.Lookup(netip.MustParseAddr("2001:db8::1")); got != Unknown {
		t.Errorf("IPv6 lookup = %v, want Unknown", got)
	}
	// 4-in-6 mapped addresses must unmap and resolve.
	if got := r.Lookup(netip.MustParseAddr("::ffff:64.12.0.1")); got != NorthAmerica {
		t.Errorf("4-in-6 lookup = %v, want NorthAmerica", got)
	}
}

func TestSampleRoundTrips(t *testing.T) {
	r := Default()
	rng := rand.New(rand.NewPCG(1, 1))
	for _, region := range Regions {
		for i := 0; i < 500; i++ {
			a := r.Sample(region, rng)
			if got := r.Lookup(a); got != region {
				t.Fatalf("Sample(%v) produced %s which resolves to %v", region, a, got)
			}
		}
	}
}

func TestSampleUnknown(t *testing.T) {
	r := Default()
	rng := rand.New(rand.NewPCG(2, 2))
	a := r.Sample(Unknown, rng)
	if got := r.Lookup(a); got != Unknown {
		t.Fatalf("Sample(Unknown) = %s resolves to %v", a, got)
	}
}

func TestSampleDeterminism(t *testing.T) {
	r := Default()
	a := r.Sample(Europe, rand.New(rand.NewPCG(9, 9)))
	b := r.Sample(Europe, rand.New(rand.NewPCG(9, 9)))
	if a != b {
		t.Fatalf("same seed produced %s and %s", a, b)
	}
}

func TestRegionSizes(t *testing.T) {
	r := Default()
	per8 := uint64(1) << 24
	if got := r.Size(NorthAmerica); got != 32*per8 {
		t.Errorf("NA size = %d, want %d", got, 32*per8)
	}
	if got := r.Size(Europe); got != 19*per8 {
		t.Errorf("EU size = %d, want %d", got, 19*per8)
	}
	if got := r.Size(Asia); got != 24*per8 {
		t.Errorf("AS size = %d, want %d", got, 24*per8)
	}
	if got := r.Size(Unknown); got != 0 {
		t.Errorf("Unknown size = %d, want 0", got)
	}
}

func TestNewRegistryRejectsOverlap(t *testing.T) {
	_, err := NewRegistry([]cidr{
		{"10.0.0.0/8", Europe},
		{"10.1.0.0/16", Asia},
	})
	if err == nil {
		t.Fatal("overlapping blocks should be rejected")
	}
}

func TestNewRegistryRejectsBadPrefix(t *testing.T) {
	if _, err := NewRegistry([]cidr{{"not-a-prefix", Europe}}); err == nil {
		t.Fatal("bad prefix should be rejected")
	}
	if _, err := NewRegistry([]cidr{{"2001:db8::/32", Europe}}); err == nil {
		t.Fatal("IPv6 prefix should be rejected")
	}
}

// Property: every sampled address from a continental region resolves back to
// that region, for arbitrary seeds.
func TestPropertySampleLookupConsistent(t *testing.T) {
	r := Default()
	f := func(seed1, seed2 uint64, pick uint8) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		region := Regions[int(pick)%NumRegions]
		return r.Lookup(r.Sample(region, rng)) == region
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: lookup of an arbitrary IPv4 address never panics and returns a
// valid region value.
func TestPropertyLookupTotal(t *testing.T) {
	r := Default()
	f := func(b [4]byte) bool {
		got := r.Lookup(netip.AddrFrom4(b))
		return got <= Unknown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// zeroingSource is a PCG stream that counts its draws and returns 0 in
// place of the draws at the listed positions. A 0 sends Uint64N(n), for
// any n that is not a power of two, round its rejection loop once more.
type zeroingSource struct {
	pcg   *rand.PCG
	n     int
	zeros map[int]bool
}

func (z *zeroingSource) Uint64() uint64 {
	v := z.pcg.Uint64()
	z.n++
	if z.zeros[z.n-1] {
		return 0
	}
	return v
}

// TestSkipSampleMatchesSample: SkipSample must leave the random stream
// exactly where Sample leaves it, for every region (Unknown and an
// out-of-range value included) and when Uint64N retries.
func TestSkipSampleMatchesSample(t *testing.T) {
	r := Default()
	retried := false
	for region := Region(0); region <= numRegions; region++ {
		for seed := uint64(0); seed < 16; seed++ {
			for _, zeros := range []map[int]bool{nil, {0: true}, {0: true, 1: true}} {
				full := &zeroingSource{pcg: rand.NewPCG(seed, 3), zeros: zeros}
				r.Sample(region, rand.New(full))
				skip := &zeroingSource{pcg: rand.NewPCG(seed, 3), zeros: zeros}
				r.SkipSample(region, rand.New(skip))
				if full.n != skip.n {
					t.Fatalf("region %v seed %d zeros %v: Sample drew %d values, SkipSample %d", region, seed, zeros, full.n, skip.n)
				}
				retried = retried || full.n > 1
			}
		}
	}
	if !retried {
		t.Fatal("no case sent Uint64N round its rejection loop")
	}
}
