package stream

// MergeChunk exposes the most sessions one merge output chunk holds, so
// the external merge tests can place records across chunk boundaries.
const MergeChunk = mergeChunk

// RunChunk exposes the first pong or hit run chunk's length, so the
// external merge tests can make runs span several chunks.
const RunChunk = runChunk
