#include "service/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/fault_injection.hpp"
#include "common/telemetry.hpp"
#include "graph/delta_codec.hpp"

namespace gapart {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kFileMagic = 0x4c574147u;    // "GAWL"
constexpr std::uint32_t kFileVersion = 2u;
constexpr std::uint32_t kRecordMagic = 0x524c4157u;  // "WALR"
constexpr std::size_t kFileHeaderSize = 8;
static_assert(kFileHeaderSize == kWalLogHeaderBytes,
              "kWalLogHeaderBytes (wal.hpp) must match the file header");
// magic u32 + type u8 + epoch u64 + payload_len u32 + crc u32
constexpr std::size_t kFrameHeaderSize = 21;
constexpr std::uint32_t kMaxPayload = 1u << 30;

constexpr std::uint32_t kImageMagic = 0x31495347u;  // "GSI1"
// magic u32 + num_parts u32 + objective u32 + lambda u64 + epoch u64 +
// digest u64 + graph length u64
constexpr std::size_t kImageHeaderSize = 44;

std::string build_frame(WalRecordType type, std::uint64_t epoch,
                        const std::string& payload) {
  GAPART_REQUIRE(payload.size() <= kMaxPayload, "WAL payload of ",
                 payload.size(), " bytes exceeds the 1 GiB frame limit");
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  put<std::uint32_t>(frame, kRecordMagic);
  put<std::uint8_t>(frame, static_cast<std::uint8_t>(type));
  put<std::uint64_t>(frame, epoch);
  put<std::uint32_t>(frame, static_cast<std::uint32_t>(payload.size()));
  // The CRC covers the header fields after the magic plus the payload, so a
  // flipped bit anywhere in the frame fails the same check.
  std::uint32_t crc = crc32(frame.data() + 4, frame.size() - 4);
  crc = crc32(payload.data(), payload.size(), crc);
  put<std::uint32_t>(frame, crc);
  frame.append(payload);
  return frame;
}

/// Attempts to parse one frame at `pos`.  Returns the parsed record and
/// advances `pos` on success; returns nullopt when the bytes at `pos` do not
/// form a complete valid frame (caller decides: torn tail or corruption).
std::optional<WalRecord> try_parse_frame(const std::string& bytes,
                                         std::size_t& pos) {
  if (pos + kFrameHeaderSize > bytes.size()) return std::nullopt;
  ByteReader header(std::string_view(bytes).substr(pos, kFrameHeaderSize));
  if (header.get<std::uint32_t>() != kRecordMagic) return std::nullopt;
  const auto type = header.get<std::uint8_t>();
  if (!is_record_type(type)) return std::nullopt;
  const auto epoch = header.get<std::uint64_t>();
  const auto payload_len = header.get<std::uint32_t>();
  if (payload_len > kMaxPayload) return std::nullopt;
  if (pos + kFrameHeaderSize + payload_len > bytes.size()) return std::nullopt;
  const auto stored_crc = header.get<std::uint32_t>();
  std::uint32_t crc = crc32(bytes.data() + pos + 4, kFrameHeaderSize - 8);
  crc = crc32(bytes.data() + pos + kFrameHeaderSize, payload_len, crc);
  if (crc != stored_crc) return std::nullopt;

  WalRecord rec;
  rec.type = static_cast<WalRecordType>(type);
  rec.epoch = epoch;
  rec.payload = bytes.substr(pos + kFrameHeaderSize, payload_len);
  pos += kFrameHeaderSize + payload_len;
  return rec;
}

/// Is there any fully valid frame at or after `from`?  Distinguishes a torn
/// tail (no — the file simply ends in a partial write) from corruption in
/// the middle of the log (yes — trusting later records would reorder
/// history, so recovery must refuse).
bool any_valid_frame_after(const std::string& bytes, std::size_t from) {
  for (std::size_t pos = from; pos + kFrameHeaderSize <= bytes.size(); ++pos) {
    std::size_t probe = pos;
    if (try_parse_frame(bytes, probe).has_value()) return true;
  }
  return false;
}

/// `bytes` holds at least kFileHeaderSize bytes.
void check_log_header(const std::string& bytes, const std::string& path) {
  ByteReader header(bytes);
  if (header.get<std::uint32_t>() != kFileMagic ||
      header.get<std::uint32_t>() != kFileVersion) {
    throw WalCorruptError("'" + path + "' is not a gapart WAL (bad header)");
  }
}

void posix_fsync_fd(int fd, const char* what) {
  if (GAPART_FAULT_POINT(FaultSite::kWalFsync)) {
    throw IoError(std::string("injected fsync failure (") + what + ")");
  }
  if (::fsync(fd) != 0) {
    throw IoError(std::string("fsync failed (") + what + "): " +
                  std::strerror(errno));
  }
}

/// fsync a file (or directory) by path — used after temp-file renames so the
/// rename itself is durable, not just the data.
void fsync_path(const std::string& path, const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("cannot open '" + path + "' to fsync (" + what + "): " +
                  std::strerror(errno));
  }
  try {
    posix_fsync_fd(fd, what);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void rename_file(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) {
    throw IoError("rename '" + from + "' -> '" + to + "' failed: " +
                  ec.message());
  }
}

std::string snap_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/snap-" + std::to_string(epoch);
}

/// An outcome's parts take one byte while every part id fits in one.
bool narrow_parts(PartId num_parts) { return num_parts <= 256; }

}  // namespace

void write_file_atomic(const std::string& path, const std::string& content) {
  std::string dir = fs::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) throw IoError("cannot create '" + dir + "': " + ec.message());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os.good()) throw IoError("cannot open '" + tmp + "' for writing");
    os.write(content.data(),
             static_cast<std::streamsize>(content.size()));
    if (GAPART_FAULT_POINT(FaultSite::kFileWrite)) {
      os.setstate(std::ios::badbit);
    }
    os.flush();
    if (!os.good()) throw IoError("write failed for '" + tmp + "'");
  }
  fsync_path(tmp, "atomic write");
  rename_file(tmp, path);
  fsync_path(dir, "atomic write dir");
}

std::string read_file(const std::string& path) {
  std::error_code ec;
  const auto size = static_cast<std::streamsize>(fs::file_size(path, ec));
  std::ifstream is(path, std::ios::binary);
  if (ec || !is.good()) {
    throw IoError("cannot open '" + path + "' for reading" +
                  (ec ? ": " + ec.message() : ""));
  }
  std::string bytes(static_cast<std::size_t>(size), '\0');
  is.read(bytes.data(), size);
  if (is.gcount() != size) {
    throw IoError("short read of '" + path + "': " +
                  std::to_string(is.gcount()) + " of " + std::to_string(size) +
                  " bytes");
  }
  return bytes;
}

WalReadResult read_log_file(const std::string& path) {
  WalReadResult out;
  std::error_code ec;
  if (!fs::exists(path, ec)) return out;

  const std::string bytes = read_file(path);
  if (bytes.size() < kFileHeaderSize) {
    // A crash during log creation: nothing was ever appended.
    out.torn_tail = !bytes.empty();
    return out;
  }
  check_log_header(bytes, path);

  std::size_t pos = kFileHeaderSize;
  out.valid_bytes = pos;
  while (pos < bytes.size()) {
    auto rec = try_parse_frame(bytes, pos);
    if (!rec.has_value()) {
      if (any_valid_frame_after(bytes, pos + 1)) {
        throw WalCorruptError(
            "'" + path + "' has a corrupt record at offset " +
            std::to_string(pos) + " followed by valid records — refusing " +
            "to replay past a hole in history");
      }
      out.torn_tail = true;
      break;
    }
    out.records.push_back(std::move(*rec));
    out.valid_bytes = pos;
  }
  return out;
}

WalTail read_log_tail(const std::string& path, std::uint64_t offset,
                      std::uint64_t limit_bytes) {
  GAPART_REQUIRE(offset >= kWalLogHeaderBytes,
                 "tail reads start at or after the log header, got offset ",
                 offset);
  WalTail out;
  out.end_offset = offset;
  std::error_code ec;
  if (!fs::exists(path, ec)) return out;

  // Only the header and [offset, min(limit, size)) are read: the shipper
  // polls every pump, and the prefix it already shipped can be most of the
  // file.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is.good()) throw IoError("cannot open '" + path + "' for reading");
  const auto size = static_cast<std::uint64_t>(is.tellg());
  if (size < kFileHeaderSize || offset > size) return out;
  std::string bytes(kFileHeaderSize, '\0');
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (is.bad()) throw IoError("read failed for '" + path + "'");
  check_log_header(bytes, path);

  // A frame that would end past the limit does not parse in the window.
  const std::uint64_t end = std::max(offset, std::min(limit_bytes, size));
  bytes.assign(static_cast<std::size_t>(end - offset), '\0');
  is.seekg(static_cast<std::streamoff>(offset));
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (is.bad()) throw IoError("read failed for '" + path + "'");
  bytes.resize(static_cast<std::size_t>(is.gcount()));  // truncated under us

  std::size_t pos = 0;
  while (pos < bytes.size()) {
    std::size_t next = pos;
    auto rec = try_parse_frame(bytes, next);
    if (!rec.has_value()) break;
    out.records.push_back(std::move(*rec));
    out.ends.push_back(offset + next);
    pos = next;
  }
  out.end_offset = offset + pos;
  return out;
}

// The parts section is the assignment's int32 array verbatim (host byte
// order, little-endian on every supported target), copied as one block.
static_assert(std::is_same_v<PartId, std::int32_t>);

void encode_assignment(std::string& out, const Assignment& assignment) {
  put<std::uint64_t>(out, assignment.size());
  out.append(reinterpret_cast<const char*>(assignment.data()),
             assignment.size() * sizeof(PartId));
}

Assignment decode_assignment(std::string_view payload) {
  ByteReader in(payload);
  const auto n = in.get<std::uint64_t>();
  // Compare by division: n * 4 can wrap for a corrupt n.
  GAPART_REQUIRE(in.remaining() % 4 == 0 && n == in.remaining() / 4,
                 "assignment payload size mismatch: header says ", n,
                 " entries, payload has ", payload.size(), " bytes");
  Assignment a(static_cast<std::size_t>(n));
  in.take(in.remaining()).copy(reinterpret_cast<char*>(a.data()),
                               a.size() * sizeof(PartId));
  return a;
}

void encode_outcome(std::string& out, const RepairOutcome& outcome,
                    PartId num_parts) {
  const auto put_part = [&](PartId p) {
    if (narrow_parts(num_parts)) {
      put<std::uint8_t>(out, static_cast<std::uint8_t>(p));
    } else {
      put<std::uint32_t>(out, static_cast<std::uint32_t>(p));
    }
  };
  put<std::uint32_t>(out, static_cast<std::uint32_t>(outcome.moves.size()));
  for (const PartId p : outcome.new_parts) put_part(p);
  for (const PartMove& m : outcome.moves) {
    put<std::uint32_t>(out, static_cast<std::uint32_t>(m.v));
    put_part(m.to);
  }
}

RepairOutcome decode_outcome(ByteReader& in, VertexId num_new,
                             VertexId num_vertices, PartId num_parts) {
  const std::uint64_t part_bytes = narrow_parts(num_parts) ? 1 : 4;
  const auto num_moves = in.get<std::uint32_t>();
  // Size the section before anything is allocated from its counts.
  const std::uint64_t size = part_bytes * static_cast<std::uint64_t>(num_new) +
                             (4 + part_bytes) * num_moves;
  GAPART_REQUIRE(in.remaining() == size, "outcome section of ", in.remaining(),
                 " bytes does not hold ", num_new, " new parts and ",
                 num_moves, " moves");
  const auto get_part = [&] {
    const std::uint32_t p =
        part_bytes == 1 ? in.get<std::uint8_t>() : in.get<std::uint32_t>();
    GAPART_REQUIRE(p < static_cast<std::uint32_t>(num_parts), "logged part ",
                   p, " out of range for ", num_parts, " parts");
    return static_cast<PartId>(p);
  };
  RepairOutcome out;
  out.new_parts.resize(static_cast<std::size_t>(num_new));
  for (PartId& p : out.new_parts) p = get_part();
  out.moves.resize(num_moves);
  for (PartMove& m : out.moves) {
    const auto v = in.get<std::uint32_t>();
    GAPART_REQUIRE(v < static_cast<std::uint32_t>(num_vertices),
                   "logged move of vertex ", v, " in a ", num_vertices,
                   "-vertex graph");
    m = {static_cast<VertexId>(v), get_part()};
  }
  return out;
}

std::string encode_session_image(const SessionImage& image) {
  GAPART_SPAN("image.encode");
  // Every section is written in place into one buffer sized up front.
  const GraphDelta whole{0, {}};
  const std::size_t graph_bytes = encoded_delta_size(*image.graph, whole);
  std::string out;
  out.reserve(kImageHeaderSize + graph_bytes + 8 +
              sizeof(PartId) * image.assignment.size() +
              16 * (image.sums.part_weight.size() + 1) + 4);
  put<std::uint32_t>(out, kImageMagic);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(image.num_parts));
  put<std::uint32_t>(out, static_cast<std::uint32_t>(image.fitness.objective));
  put<double>(out, image.fitness.lambda);
  put<std::uint64_t>(out, image.epoch);
  put<std::uint64_t>(out, image.digest);
  put<std::uint64_t>(out, graph_bytes);
  const std::size_t graph_at = out.size();
  out.resize(graph_at + graph_bytes);
  encode_delta(out.data() + graph_at, *image.graph, whole);
  encode_assignment(out, image.assignment);
  for (const double w : image.sums.part_weight) put<double>(out, w);
  for (const double c : image.sums.part_cut) put<double>(out, c);
  put<double>(out, image.sums.sum_part_cut);
  put<double>(out, image.sums.imbalance_sq);
  put<std::uint32_t>(out, crc32(out.data(), out.size()));
  return out;
}

SessionImage decode_session_image(std::string_view bytes) {
  GAPART_SPAN("image.decode");
  GAPART_REQUIRE(bytes.size() >= kImageHeaderSize + 4, "session image of ",
                 bytes.size(), " bytes is truncated");
  const std::string_view body = bytes.substr(0, bytes.size() - 4);
  GAPART_REQUIRE(ByteReader(bytes.substr(body.size())).get<std::uint32_t>() ==
                     crc32(body.data(), body.size()),
                 "session image fails its CRC");
  ByteReader in(body);
  GAPART_REQUIRE(in.get<std::uint32_t>() == kImageMagic,
                 "not a gapart session image (bad magic)");
  SessionImage image;
  const auto num_parts = in.get<std::uint32_t>();
  GAPART_REQUIRE(num_parts >= 1 &&
                     num_parts <= static_cast<std::uint32_t>(
                                      std::numeric_limits<PartId>::max()),
                 "session image has ", num_parts, " parts");
  image.num_parts = static_cast<PartId>(num_parts);
  const auto objective = in.get<std::uint32_t>();
  GAPART_REQUIRE(objective <= static_cast<std::uint32_t>(Objective::kWorstComm),
                 "session image has unknown objective ", objective);
  image.fitness.objective = static_cast<Objective>(objective);
  image.fitness.lambda = in.get<double>();
  GAPART_REQUIRE(std::isfinite(image.fitness.lambda),
                 "session image has a non-finite lambda");
  image.epoch = in.get<std::uint64_t>();
  image.digest = in.get<std::uint64_t>();
  const auto graph_len = in.get<std::uint64_t>();
  image.graph = std::make_shared<const Graph>(
      decode_delta(Graph(), in.take(static_cast<std::size_t>(graph_len)))
          .grown);
  const Graph& graph = *image.graph;
  // The parts section holds one entry per vertex: u64 count + n x i32.
  image.assignment = decode_assignment(
      in.take(8 + 4 * static_cast<std::size_t>(graph.num_vertices())));
  GAPART_REQUIRE(is_valid_assignment(graph, image.assignment, image.num_parts),
                 "session image holds no valid ", image.num_parts,
                 "-way partition of its ", graph.num_vertices(),
                 "-vertex graph");
  const auto k = static_cast<std::size_t>(num_parts);
  GAPART_REQUIRE(in.remaining() == 16 * (k + 1), "session image sums take ",
                 in.remaining(), " bytes, expected ", 16 * (k + 1));
  PartitionMetrics& sums = image.sums;
  sums.part_weight.resize(k);
  sums.part_cut.resize(k);
  for (double& w : sums.part_weight) w = in.get<double>();
  for (double& c : sums.part_cut) c = in.get<double>();
  sums.sum_part_cut = in.get<double>();
  sums.imbalance_sq = in.get<double>();
  sums.max_part_cut =
      *std::max_element(sums.part_cut.begin(), sums.part_cut.end());
  return image;
}

// ---------------------------------------------------------------------------
// SessionWal

SessionWal::SessionWal(std::string dir, DurabilityConfig config)
    : dir_(std::move(dir)), config_(std::move(config)) {}

SessionWal::~SessionWal() {
  if (fd_ >= 0) ::close(fd_);
}

void SessionWal::open_log(std::uint64_t resume_at, bool truncate_all) {
  const std::string path = dir_ + "/wal.log";
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) {
    throw IoError("cannot open '" + path + "': " + std::strerror(errno));
  }
  const std::uint64_t keep =
      truncate_all || resume_at < kFileHeaderSize ? 0 : resume_at;
  if (::ftruncate(fd_, static_cast<off_t>(keep)) != 0) {
    throw IoError("cannot truncate '" + path + "': " + std::strerror(errno));
  }
  if (keep == 0) {
    std::string header;
    put<std::uint32_t>(header, kFileMagic);
    put<std::uint32_t>(header, kFileVersion);
    append_frame_once(header);
    posix_fsync_fd(fd_, "log header");
  }
}

void SessionWal::append_frame_once(const std::string& frame) {
  if (GAPART_FAULT_POINT(FaultSite::kWalAppend)) {
    throw IoError("injected WAL write failure");
  }
  // Remember where this frame starts so a partial write can be rolled back
  // before the retry loop re-appends — otherwise the retry would leave a
  // torn frame followed by a valid one, which replay rightly refuses.
  const off_t start = ::lseek(fd_, 0, SEEK_END);
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + done, frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      if (start >= 0) ::ftruncate(fd_, start);
      throw IoError(std::string("WAL write failed: ") + std::strerror(err));
    }
    done += static_cast<std::size_t>(n);
  }
}

void SessionWal::fsync_log() {
  GAPART_SPAN("wal.fsync");
  posix_fsync_fd(fd_, "wal");
  ++stats_.fsyncs;
}

void SessionWal::append(WalRecordType type, std::uint64_t epoch,
                        const std::string& payload, VertexId damage) {
  GAPART_SPAN("wal.append");
  const std::string frame = build_frame(type, epoch, payload);
  stats_.append_retries += static_cast<std::uint64_t>(retry_with_backoff(
      config_.io_retry, [&] { append_frame_once(frame); }));
  try {
    stats_.append_retries += static_cast<std::uint64_t>(
        retry_with_backoff(config_.io_retry, [&] { fsync_log(); }));
  } catch (const IoError&) {
    // The caller takes a thrown append as a record never logged, so roll
    // the frame back as append_frame_once does: replay and the shipper
    // must not find it.
    if (::ftruncate(fd_, static_cast<off_t>(stats_.log_end())) != 0) {
      // The fsync error rethrown below is the one to report.
    }
    throw;
  }
  ++stats_.appends;
  stats_.bytes_appended += frame.size();
  GAPART_COUNTER_ADD("wal.append_bytes", frame.size());
  ++stats_.log_records;
  stats_.log_bytes += frame.size();
  stats_.log_damage += damage;
}

bool SessionWal::should_compact() const {
  CompactionSignals signals;
  signals.log_damage = stats_.log_damage;
  signals.log_bytes = stats_.log_bytes;
  signals.log_records = stats_.log_records;
  if (!decide_compaction(config_.compaction, signals)) return false;
  // Replicated session: truncating the log would drop records the shipper
  // has not streamed yet, forcing a snapshot resync.  Defer until the
  // shipper consumed the log, up to the retention bound.
  if (ship_gate_ != nullptr &&
      (config_.ship_retain_bytes == 0 ||
       stats_.log_bytes < config_.ship_retain_bytes) &&
      ship_gate_->consumed_offset.load(std::memory_order_acquire) <
          stats_.log_end()) {
    return false;
  }
  return true;
}

void SessionWal::write_snapshot(const SessionImage& image) {
  // The image first (temp + fsync + rename), CURRENT last: CURRENT never
  // names an incomplete snapshot.
  const std::string bytes = encode_session_image(image);
  {
    GAPART_SPAN("image.write");
    write_file_atomic(snap_path(dir_, image.epoch), bytes);
  }
  write_file_atomic(dir_ + "/CURRENT", std::to_string(image.epoch) + "\n");
}

void SessionWal::compact(const SessionImage& image) {
  GAPART_SPAN("wal.compact");
  const std::uint64_t old_epoch = stats_.snapshot_epoch;
  try {
    write_snapshot(image);
    // CURRENT names the new snapshot from here on, whatever fails below.
    stats_.snapshot_epoch = image.epoch;
    stats_.snapshot_digest = image.digest;
    if (old_epoch != image.epoch) {
      // Garbage now; failing to remove it costs only disk.
      std::error_code ec;
      fs::remove(snap_path(dir_, old_epoch), ec);
    }
    // The log's records are all <= epoch and would be skipped on replay, so
    // truncating is safe — and a crash right here leaves a stale-prefix
    // log, which replay skips.
    if (::ftruncate(fd_, static_cast<off_t>(kFileHeaderSize)) != 0) {
      throw IoError(std::string("WAL truncate failed: ") +
                    std::strerror(errno));
    }
    // The log is the bare header now, even if the fsync below fails: an
    // append's rollback and the shipper's cap must describe that file.
    stats_.log_records = 0;
    stats_.log_bytes = 0;
    stats_.log_damage = 0;
    posix_fsync_fd(fd_, "wal truncate");
  } catch (const IoError&) {
    ++stats_.compaction_failures;
    throw;
  }
  ++stats_.compactions;
}

std::unique_ptr<SessionWal> SessionWal::create(std::string dir,
                                               const DurabilityConfig& config,
                                               const SessionImage& image) {
  auto wal = std::unique_ptr<SessionWal>(new SessionWal(dir, config));
  wal->write_snapshot(image);
  wal->stats_.snapshot_epoch = image.epoch;
  wal->stats_.snapshot_digest = image.digest;
  wal->open_log(0, /*truncate_all=*/true);
  return wal;
}

SessionWal::Recovered SessionWal::recover(std::string dir,
                                          const DurabilityConfig& config) {
  Recovered out;

  std::uint64_t snapshot_epoch = 0;
  {
    std::istringstream cur(read_file(dir + "/CURRENT"));
    cur >> snapshot_epoch;
    GAPART_REQUIRE(!cur.fail(), "'", dir, "/CURRENT' is malformed");
  }
  out.image = decode_session_image(read_file(snap_path(dir, snapshot_epoch)));
  GAPART_REQUIRE(out.image.epoch == snapshot_epoch, "'",
                 snap_path(dir, snapshot_epoch), "' holds epoch ",
                 out.image.epoch);

  WalReadResult log = read_log_file(dir + "/wal.log");
  out.torn_tail = log.torn_tail;

  // Skip the stale prefix (a compaction that crashed between the CURRENT
  // rename and the log truncation leaves records <= snapshot epoch at the
  // front), then demand a gapless epoch chain (continues_epoch_chain).
  // A refinement at the snapshot epoch is kept: it may have been adopted
  // after the compaction, and one the snapshot already holds moves nothing.
  std::uint64_t epoch = snapshot_epoch;
  bool past_prefix = false;
  for (auto& rec : log.records) {
    if (!past_prefix &&
        (rec.epoch < snapshot_epoch ||
         (rec.epoch == snapshot_epoch && rec.type == WalRecordType::kDelta))) {
      continue;
    }
    past_prefix = true;
    if (!continues_epoch_chain(rec, epoch)) {
      throw WalCorruptError(
          "'" + dir + "/wal.log' breaks the epoch chain: a " +
          (rec.type == WalRecordType::kDelta ? "delta" : "refinement") +
          " record for epoch " + std::to_string(rec.epoch) + " at epoch " +
          std::to_string(epoch));
    }
    epoch = rec.epoch;
    out.records.push_back(std::move(rec));
  }

  out.wal = std::unique_ptr<SessionWal>(new SessionWal(dir, config));
  out.wal->stats_.snapshot_epoch = snapshot_epoch;
  out.wal->stats_.snapshot_digest = out.image.digest;
  out.wal->stats_.log_records = out.records.size();
  out.wal->stats_.log_bytes =
      log.valid_bytes > kFileHeaderSize ? log.valid_bytes - kFileHeaderSize
                                        : 0;
  out.wal->open_log(log.valid_bytes, /*truncate_all=*/false);
  return out;
}

}  // namespace gapart
