#include "artifact/artifact.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "util/check.hpp"

namespace forumcast::artifact {
namespace {

// Slicing-by-8 tables: tables[0] is the bytewise table of the reflected
// IEEE polynomial, and tables[k][b] is the CRC of byte b followed by k zero
// bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xedb88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

std::uint32_t load_le32(const unsigned char* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

void append_raw(std::string& buffer, const void* data, std::size_t size) {
  buffer.append(static_cast<const char*>(data), size);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const CrcTables tables = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
          tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
          tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ tables[0][(crc ^ *p) & 0xffu];
  return crc ^ 0xffffffffu;
}

const char* section_kind_name(SectionKind kind) {
  switch (kind) {
    case SectionKind::kMeta: return "meta";
    case SectionKind::kExtractor: return "extractor";
    case SectionKind::kAnswerPredictor: return "answer_predictor";
    case SectionKind::kVotePredictor: return "vote_predictor";
    case SectionKind::kTimingPredictor: return "timing_predictor";
    case SectionKind::kModel: return "model";
    case SectionKind::kFeatureBaseline: return "feature_baseline";
    case SectionKind::kCentralityConfig: return "centrality_config";
    case SectionKind::kQuantizedMlp: return "quantized_mlp";
    case SectionKind::kEnd: return "end";
  }
  return "unknown";
}

void Encoder::u8(std::uint8_t value) { append_raw(buffer_, &value, 1); }

void Encoder::u32(std::uint32_t value) {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  append_raw(buffer_, bytes, sizeof(bytes));
}

void Encoder::u64(std::uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  append_raw(buffer_, bytes, sizeof(bytes));
}

void Encoder::f64(double value, const char* field) {
  FORUMCAST_CHECK_MSG(std::isfinite(value),
                      "model bundle: refusing to encode non-finite value in '"
                          << field << "'");
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void Encoder::str(std::string_view value) {
  u64(value.size());
  append_raw(buffer_, value.data(), value.size());
}

void Encoder::f64s(std::span<const double> values, const char* field) {
  u64(values.size());
  for (double value : values) f64(value, field);
}

void Encoder::u64s(std::span<const std::uint64_t> values) {
  u64(values.size());
  for (std::uint64_t value : values) u64(value);
}

void Encoder::counts(std::span<const std::size_t> values) {
  u64(values.size());
  for (std::size_t value : values) u64(static_cast<std::uint64_t>(value));
}

Decoder::Decoder(std::string payload, std::string context)
    : payload_(std::move(payload)), context_(std::move(context)) {}

const char* Decoder::take(std::size_t size, const char* field) {
  FORUMCAST_CHECK_MSG(size <= payload_.size() - cursor_,
                      "model bundle: section '"
                          << context_ << "': truncated while reading '" << field
                          << "' (need " << size << " bytes, have "
                          << payload_.size() - cursor_ << ")");
  const char* data = payload_.data() + cursor_;
  cursor_ += size;
  return data;
}

std::uint64_t Decoder::length(std::size_t elem_size, const char* field) {
  std::uint64_t count = u64(field);
  FORUMCAST_CHECK_MSG(
      count <= remaining() / (elem_size == 0 ? 1 : elem_size),
      "model bundle: section '" << context_ << "': implausible element count "
                                << count << " for '" << field
                                << "' (only " << remaining()
                                << " payload bytes remain)");
  return count;
}

std::uint8_t Decoder::u8(const char* field) {
  return static_cast<std::uint8_t>(*take(1, field));
}

std::uint32_t Decoder::u32(const char* field) {
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(take(4, field));
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{bytes[i]} << (8 * i);
  return value;
}

std::uint64_t Decoder::u64(const char* field) {
  const unsigned char* bytes =
      reinterpret_cast<const unsigned char*>(take(8, field));
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{bytes[i]} << (8 * i);
  return value;
}

bool Decoder::boolean(const char* field) {
  std::uint8_t value = u8(field);
  FORUMCAST_CHECK_MSG(value <= 1, "model bundle: section '"
                                      << context_ << "': field '" << field
                                      << "' is not a boolean (byte "
                                      << static_cast<int>(value) << ")");
  return value != 0;
}

double Decoder::f64(const char* field) {
  std::uint64_t bits = u64(field);
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  FORUMCAST_CHECK_MSG(std::isfinite(value),
                      "model bundle: section '"
                          << context_ << "': field '" << field
                          << "' holds a non-finite double");
  return value;
}

std::string Decoder::str(const char* field) {
  std::uint64_t count = length(1, field);
  const char* data = take(static_cast<std::size_t>(count), field);
  return std::string(data, static_cast<std::size_t>(count));
}

std::vector<double> Decoder::f64s(const char* field) {
  std::uint64_t count = length(8, field);
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(f64(field));
  return values;
}

std::vector<std::uint64_t> Decoder::u64s(const char* field) {
  std::uint64_t count = length(8, field);
  std::vector<std::uint64_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) values.push_back(u64(field));
  return values;
}

std::vector<std::size_t> Decoder::counts(const char* field) {
  std::uint64_t count = length(8, field);
  std::vector<std::size_t> values;
  values.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t value = u64(field);
    FORUMCAST_CHECK_MSG(value <= std::numeric_limits<std::size_t>::max(),
                        "model bundle: section '"
                            << context_ << "': field '" << field
                            << "' overflows size_t");
    values.push_back(static_cast<std::size_t>(value));
  }
  return values;
}

void Decoder::finish() {
  FORUMCAST_CHECK_MSG(cursor_ == payload_.size(),
                      "model bundle: section '"
                          << context_ << "': " << payload_.size() - cursor_
                          << " trailing bytes after the last field (format "
                             "skew between writer and reader)");
}

namespace {

constexpr char kMagic[4] = {'F', 'C', 'M', 'B'};

void write_u32(std::ostream& out, std::uint32_t value) {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<unsigned char>(value >> (8 * i));
  out.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
}

std::uint32_t read_u32(std::istream& in, const char* what) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
  FORUMCAST_CHECK_MSG(in.gcount() == sizeof(bytes),
                      "model bundle: truncated while reading " << what);
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{bytes[i]} << (8 * i);
  return value;
}

}  // namespace

BundleWriter::BundleWriter(std::ostream& out) : out_(out) {
  out_.write(kMagic, sizeof(kMagic));
  write_u32(out_, kFormatVersion);
  bytes_written_ = sizeof(kMagic) + 4;
}

BundleWriter::~BundleWriter() {
  // No auto-finish: an exception unwinding past a writer must not leave
  // behind a bundle with a valid end marker. Destructors cannot throw, so a
  // forgotten finish() on the success path is an assert, not a CheckError —
  // readers will reject the markerless bundle anyway.
  assert(finished_ || std::uncaught_exceptions());
}

void BundleWriter::section(SectionKind kind, const Encoder& payload) {
  FORUMCAST_CHECK_MSG(!finished_, "BundleWriter: section() after finish()");
  std::string framed;
  framed.reserve(payload.size() + 4);
  {
    Encoder head;
    head.u32(static_cast<std::uint32_t>(kind));
    framed = head.bytes();
  }
  framed += payload.bytes();
  FORUMCAST_CHECK_MSG(framed.size() <= std::numeric_limits<std::uint32_t>::max(),
                      "model bundle: section '" << section_kind_name(kind)
                                                << "' exceeds 4 GiB");
  write_u32(out_, static_cast<std::uint32_t>(framed.size()));
  write_u32(out_, crc32(framed));
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  FORUMCAST_CHECK_MSG(out_.good(), "model bundle: write failed in section '"
                                       << section_kind_name(kind) << "'");
  bytes_written_ += 8 + framed.size();
  ++sections_written_;
}

void BundleWriter::finish() {
  FORUMCAST_CHECK_MSG(!finished_, "BundleWriter: finish() called twice");
  Encoder empty;
  section(SectionKind::kEnd, empty);
  --sections_written_;  // the end marker is framing, not a payload section
  out_.flush();
  FORUMCAST_CHECK_MSG(out_.good(), "model bundle: flush failed");
  finished_ = true;
}

BundleReader::BundleReader(std::istream& in) : in_(in) {
  char magic[4];
  in_.read(magic, sizeof(magic));
  FORUMCAST_CHECK_MSG(in_.gcount() == sizeof(magic) &&
                          std::memcmp(magic, kMagic, sizeof(magic)) == 0,
                      "model bundle: bad magic (not a forumcast model bundle)");
  std::uint32_t version = read_u32(in_, "format version");
  FORUMCAST_CHECK_MSG(version == kFormatVersion,
                      "model bundle: unsupported format version "
                          << version << " (this build reads version "
                          << kFormatVersion << ")");
}

SectionKind BundleReader::next_section(std::string& payload,
                                       SectionKind expected) {
  if (pushback_) {
    const SectionKind kind = pushback_->first;
    payload = std::move(pushback_->second);
    pushback_.reset();
    return kind;
  }
  const char* expected_name = section_kind_name(expected);
  std::uint32_t length = read_u32(in_, "section length");
  std::uint32_t stored_crc = read_u32(in_, "section checksum");
  FORUMCAST_CHECK_MSG(length >= 4, "model bundle: section frame too short for "
                                   "a kind tag (expected section '"
                                       << expected_name << "')");
  std::string framed(length, '\0');
  in_.read(framed.data(), static_cast<std::streamsize>(length));
  FORUMCAST_CHECK_MSG(
      static_cast<std::uint32_t>(in_.gcount()) == length,
      "model bundle: truncated section payload (expected section '"
          << expected_name << "': need " << length << " bytes, got "
          << in_.gcount() << ")");
  FORUMCAST_CHECK_MSG(crc32(framed) == stored_crc,
                      "model bundle: CRC mismatch in section (expected "
                      "section '"
                          << expected_name << "') — bundle is corrupted");
  Decoder head(framed.substr(0, 4), "section header");
  SectionKind kind = static_cast<SectionKind>(head.u32("section kind"));
  payload = framed.substr(4);
  return kind;
}

Decoder BundleReader::expect(SectionKind kind) {
  FORUMCAST_CHECK_MSG(!done_, "model bundle: read past the end marker");
  std::string payload;
  SectionKind actual = next_section(payload, kind);
  FORUMCAST_CHECK_MSG(actual == kind,
                      "model bundle: expected section '"
                          << section_kind_name(kind) << "' but found '"
                          << section_kind_name(actual) << "'");
  return Decoder(std::move(payload), section_kind_name(kind));
}

std::optional<Decoder> BundleReader::try_expect(SectionKind kind) {
  FORUMCAST_CHECK_MSG(!done_, "model bundle: read past the end marker");
  std::string payload;
  const SectionKind actual = next_section(payload, kind);
  if (actual != kind) {
    pushback_.emplace(actual, std::move(payload));
    return std::nullopt;
  }
  return Decoder(std::move(payload), section_kind_name(kind));
}

void BundleReader::finish() {
  FORUMCAST_CHECK_MSG(!done_, "model bundle: finish() called twice");
  std::string payload;
  SectionKind kind = next_section(payload, SectionKind::kEnd);
  FORUMCAST_CHECK_MSG(kind == SectionKind::kEnd,
                      "model bundle: expected end marker but found section '"
                          << section_kind_name(kind) << "'");
  FORUMCAST_CHECK_MSG(payload.empty(),
                      "model bundle: end marker carries a payload");
  done_ = true;
}

}  // namespace forumcast::artifact
