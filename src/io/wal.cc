#include "io/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/strings.h"
#include "io/codec.h"
#include "io/crc32.h"
#include "io/snapshot.h"

namespace rvar {
namespace io {
namespace {

constexpr char kWalMagic[4] = {'R', 'V', 'W', 'L'};

std::string EncodeHeader(uint64_t segment_id) {
  BinaryWriter out;
  out.PutRaw(std::string_view(kWalMagic, sizeof(kWalMagic)));
  out.PutU32(kWalFormatVersion);
  out.PutU64(segment_id);
  out.PutU32(MaskCrc32(Crc32(out.bytes())));
  return out.TakeBytes();
}

Status WriteAllFd(int fd, std::string_view bytes, const std::string& path) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("write failed for ", path, ": ", std::strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<WalScanResult> ScanWalSegment(std::string image) {
  WalScanResult scan;
  scan.bytes = std::make_unique<const std::string>(std::move(image));
  const std::string_view bytes = *scan.bytes;
  if (bytes.size() < kWalHeaderSize) {
    // Crash between create and header fsync: nothing usable, but not an
    // error — recovery truncates to zero and rewrites the header.
    scan.torn_tail = !bytes.empty();
    scan.dropped_bytes = bytes.size();
    return scan;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("wal segment: missing RVWL tag");
  }
  BinaryReader cursor(bytes);
  (void)cursor.ReadU32();  // magic
  const uint32_t version = *cursor.ReadU32();
  const uint64_t segment_id = *cursor.ReadU64();
  const uint32_t header_crc = *cursor.ReadU32();
  if (header_crc != MaskCrc32(Crc32(bytes.substr(0, kWalHeaderSize - 4)))) {
    return Status::IOError("wal segment: header checksum mismatch");
  }
  if (version != kWalFormatVersion) {
    return Status::IOError(StrCat("wal segment: file version ", version,
                                  ", this build reads ", kWalFormatVersion));
  }
  scan.segment_id = segment_id;
  scan.valid_bytes = kWalHeaderSize;

  while (!cursor.AtEnd()) {
    const size_t record_start = cursor.position();
    auto len = cursor.ReadU32();
    auto crc = cursor.ReadU32();
    if (!len.ok() || !crc.ok() || *len > cursor.remaining()) {
      scan.torn_tail = true;
      scan.dropped_bytes = bytes.size() - record_start;
      break;
    }
    const std::string_view payload =
        bytes.substr(cursor.position(), *len);
    if (MaskCrc32(Crc32(payload)) != *crc) {
      scan.corrupt_record = true;
      scan.dropped_bytes = bytes.size() - record_start;
      break;
    }
    RVAR_RETURN_NOT_OK(cursor.Skip(*len));
    scan.records.emplace_back(payload);
    scan.valid_bytes = cursor.position();
  }
  return scan;
}

Result<WalScanResult> ScanWalFile(const std::string& path) {
  RVAR_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ScanWalSegment(std::move(bytes));
}

Result<WalWriter> WalWriter::Create(const std::string& path,
                                    uint64_t segment_id,
                                    bool sync_each_append) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("cannot create wal segment ", path, ": ",
               std::strerror(errno)));
  }
  const std::string header = EncodeHeader(segment_id);
  Status st = WriteAllFd(fd, header, path);
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError(
        StrCat("fsync failed for ", path, ": ", std::strerror(errno)));
  }
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  return WalWriter(fd, path, segment_id, header.size(), sync_each_append);
}

Result<WalWriter> WalWriter::OpenForAppend(const std::string& path,
                                           uint64_t segment_id,
                                           uint64_t expected_size,
                                           bool sync_each_append) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::IOError(
        StrCat("cannot open wal segment ", path, ": ",
               std::strerror(errno)));
  }
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return Status::IOError(
        StrCat("fstat failed for ", path, ": ", std::strerror(errno)));
  }
  if (static_cast<uint64_t>(info.st_size) != expected_size) {
    ::close(fd);
    return Status::FailedPrecondition(
        StrCat("wal segment ", path, " is ", info.st_size,
               " bytes, expected ", expected_size,
               " — scan and truncate the torn tail before appending"));
  }
  return WalWriter(fd, path, segment_id, expected_size, sync_each_append);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      segment_id_(other.segment_id_),
      size_bytes_(other.size_bytes_),
      sync_each_append_(other.sync_each_append_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    segment_id_ = other.segment_id_;
    size_bytes_ = other.size_bytes_;
    sync_each_append_ = other.sync_each_append_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(MaskCrc32(Crc32(payload)));
  frame.PutRaw(payload);
  RVAR_RETURN_NOT_OK(WriteAllFd(fd_, frame.bytes(), path_));
  size_bytes_ += frame.bytes().size();
  if (sync_each_append_) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal writer is closed");
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(
        StrCat("fsync failed for ", path_, ": ", std::strerror(errno)));
  }
  return Status::OK();
}

Status TruncateFile(const std::string& path, uint64_t new_size) {
  if (::truncate(path.c_str(), static_cast<off_t>(new_size)) != 0) {
    return Status::IOError(
        StrCat("truncate ", path, " to ", new_size, " bytes: ",
               std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace io
}  // namespace rvar
