// Process-wide cache of parsed journal-segment cells, keyed by file path.
//
// A distributed worker's assembly pass (core/campaign CampaignRunner::run)
// reads every *rival* segment in the store directory to account for cells
// it did not execute itself. Sequential-adaptive consumers — the TMR
// planner runs hundreds of tiny campaigns per figure — would re-parse the
// full rival segments on every campaign, O(total rival cells) per call and
// quadratic overall. This cache remembers, per segment file, the cells
// parsed so far plus the byte offset just past the last intact record, and
// re-reads only the appended suffix on later calls (journal segments are
// append-only by contract).
//
// Safety against the ways a segment file can change out from under the
// cache:
//   * appended records — the normal case: only the suffix is parsed;
//   * torn trailing record (writer crashed or hit disk-full mid-append):
//     the resume offset stops BEFORE it, so a later call re-validates the
//     same bytes — a record that completed in the meantime is picked up, a
//     permanently torn one keeps being skipped (torn-tail tolerance);
//   * truncation, replacement (inode change), or a foreign/changed
//     environment hash: detected via stat + the cached env, and the file
//     is re-read from scratch;
//   * deletion (a merge retired the segment): the entry is dropped.
//
// Cells are returned by value-append into the caller's vector; the cache
// itself is the only long-lived copy. Thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/store/journal.h"

namespace winofault {

struct SegmentCacheStats {
  std::int64_t full_reads = 0;         // cold or invalidated parses
  std::int64_t incremental_reads = 0;  // suffix-only parses (incl. empty)
  std::int64_t cells_parsed = 0;       // records decoded from disk
  std::int64_t invalidations = 0;      // truncation/replacement/env change
};

// Every intact cell of the segment at `path` for `env_hash`, appended to
// `out` — same contract as ResultJournal::read_cells, served from the
// cache with only the appended suffix parsed from disk. `torn` (optional)
// reports trailing bytes past the last intact record.
bool read_segment_cells_cached(const std::string& path,
                               std::uint64_t env_hash,
                               std::vector<JournalCell>* out,
                               bool* torn = nullptr);

SegmentCacheStats segment_cache_stats();

// Drops every cached segment. Test hook (and a memory release valve for
// long-lived daemons between campaigns of retired stores).
void clear_segment_cache();

}  // namespace winofault
