// Copyright 2026 The rvar Authors.
//
// Append-only write-ahead log segments (DESIGN.md §7). A segment is a
// fixed header (magic, format version, segment id, header CRC) followed by
// length-prefixed CRC32-checksummed records — the same framing as
// snapshots, but open-ended: a crash mid-append leaves a torn tail, which
// the scanner detects and reports so recovery can truncate it and keep
// every record before the tear. Payloads are opaque bytes here; the
// RecoveryManager defines the observation record layout on top.

#ifndef RVAR_IO_WAL_H_
#define RVAR_IO_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace rvar {
namespace io {

inline constexpr uint32_t kWalFormatVersion = 1;
/// Bytes of the segment header (magic + version + segment id + CRC).
inline constexpr size_t kWalHeaderSize = 20;

/// \brief Outcome of scanning one WAL segment.
///
/// The result owns the segment bytes once, on the heap, and `records`
/// views into them: the views stay valid for as long as the result (or
/// whatever it is moved into) lives, and moving it never relocates the
/// bytes they point at.
struct WalScanResult {
  uint64_t segment_id = 0;
  /// The scanned segment image; the storage behind `records`.
  std::unique_ptr<const std::string> bytes;
  /// Record payloads of the intact prefix, in append order (views into
  /// `*bytes`; each one passed its CRC check).
  std::vector<std::string_view> records;
  /// Length of the prefix (header + intact records) that parsed cleanly;
  /// recovery truncates the file to this size.
  uint64_t valid_bytes = 0;
  /// A trailing partial record was dropped (crash mid-append).
  bool torn_tail = false;
  /// A CRC-mismatched record ended the scan (bit rot / overwrite); like
  /// RocksDB, everything from the first corrupt record on is dropped.
  bool corrupt_record = false;
  /// Bytes past valid_bytes that were dropped.
  uint64_t dropped_bytes = 0;
};

/// Parses a segment image. Fails (with IOError) only when the header
/// itself is present but unusable — bad magic, unreadable version, header
/// checksum mismatch — meaning nothing in the file can be trusted. A
/// short header (file shorter than kWalHeaderSize) is reported as a torn
/// empty segment, not an error. Takes ownership of the image, so the
/// record views need no copy.
Result<WalScanResult> ScanWalSegment(std::string image);

/// Reads and scans a segment file.
Result<WalScanResult> ScanWalFile(const std::string& path);

/// \brief Appends checksummed records to one segment file.
class WalWriter {
 public:
  /// Creates `path` (truncating any existing file) and writes the segment
  /// header. With `sync_each_append`, every Append is followed by fsync —
  /// the durability contract the torn-tail recovery test relies on.
  static Result<WalWriter> Create(const std::string& path,
                                  uint64_t segment_id, bool sync_each_append);

  /// Reopens an existing segment for appending. The caller must have
  /// scanned it and truncated any torn tail first; `expected_size` guards
  /// against appending after an unhealed tear.
  static Result<WalWriter> OpenForAppend(const std::string& path,
                                         uint64_t segment_id,
                                         uint64_t expected_size,
                                         bool sync_each_append);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one framed record (and fsyncs, per the sync policy).
  Status Append(std::string_view payload);

  /// Forces buffered appends to disk.
  Status Sync();

  uint64_t segment_id() const { return segment_id_; }
  uint64_t size_bytes() const { return size_bytes_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(int fd, std::string path, uint64_t segment_id,
            uint64_t size_bytes, bool sync_each_append)
      : fd_(fd),
        path_(std::move(path)),
        segment_id_(segment_id),
        size_bytes_(size_bytes),
        sync_each_append_(sync_each_append) {}

  int fd_ = -1;
  std::string path_;
  uint64_t segment_id_ = 0;
  uint64_t size_bytes_ = 0;
  bool sync_each_append_ = true;
};

/// Shrinks `path` to `new_size` bytes (torn-tail healing).
Status TruncateFile(const std::string& path, uint64_t new_size);

}  // namespace io
}  // namespace rvar

#endif  // RVAR_IO_WAL_H_
