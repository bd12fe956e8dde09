package stream

// MergeChunk exposes the most sessions one merge output chunk holds, so
// the external merge tests can place records across chunk boundaries.
const MergeChunk = mergeChunk
