// Versioned binary model-artifact layer: the one serialization protocol
// every subsystem that owns fitted doubles speaks.
//
// A bundle is a stream of CRC32-framed sections behind a magic +
// format-version header:
//
//   "FCMB" [u32 format_version]
//   section*  where section = [u32 payload_len][u32 crc32(payload)][payload]
//   end-marker section (kind kEnd, empty body)
//
// — the same [len][crc32][payload] record framing the streaming WAL uses
// (stream::wal), so torn writes and bit rot surface as named errors, never
// as silently default-initialized models. Each section payload starts with a
// u32 SectionKind tag followed by a kind-specific body built from the
// Encoder primitives below. Doubles travel as raw IEEE-754 bits
// (little-endian), so -0.0, denormals, and max-precision values round-trip
// exactly; Decoder::f64 rejects NaN/Inf with the offending field named.
//
// Contract shared by every encode/decode pair in the codebase: a loaded
// model must predict bit-identically to the one that saved it. Decoders
// therefore restore state verbatim instead of re-deriving it, and every
// read is bounds-checked — a truncated or corrupted bundle always throws
// util::CheckError naming the section and field, never returns partial
// state.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace forumcast::artifact {

/// IEEE CRC-32 (the zlib polynomial), table-driven. The streaming WAL's
/// stream::crc32 delegates here — one checksum for every durable byte.
std::uint32_t crc32(std::string_view data);

inline constexpr std::uint32_t kFormatVersion = 1;

/// Per-section kind tags. Values are part of the on-disk format: append
/// new kinds, never renumber.
enum class SectionKind : std::uint32_t {
  kMeta = 1,               ///< bundle-level metadata + dataset fingerprint
  kExtractor = 2,          ///< features::FeatureExtractor
  kAnswerPredictor = 3,    ///< core::AnswerPredictor
  kVotePredictor = 4,      ///< core::VotePredictor
  kTimingPredictor = 5,    ///< core::TimingPredictor
  kModel = 6,              ///< a standalone ml:: model blob
  kFeatureBaseline = 7,    ///< features::FeatureBaseline (drift reference)
  kCentralityConfig = 8,   ///< graph::CentralityConfig (exact↔sampled knob)
  kQuantizedMlp = 9,       ///< retired (old int8 vote MLP); never reuse
  kEnd = 0xffffffffu,      ///< end-of-bundle marker (empty body)
};

const char* section_kind_name(SectionKind kind);

/// Accumulates one section payload from primitive writes. All integers are
/// little-endian fixed-width; doubles are raw bits; strings and vectors are
/// u64-count-prefixed.
class Encoder {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// Raw IEEE bits: round-trip exact for every value including -0.0 and
  /// denormals. Save-side guard: non-finite values throw (a model holding
  /// NaN/Inf is broken; refusing at save names the bug early).
  void f64(double value, const char* field);
  void str(std::string_view value);
  void f64s(std::span<const double> values, const char* field);
  void u64s(std::span<const std::uint64_t> values);
  void counts(std::span<const std::size_t> values);

  const std::string& bytes() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Reads one section payload back. Every method takes the field name it is
/// reading so truncation and garbage surface as
///   "model bundle: section 'extractor': truncated while reading 'alpha'"
/// instead of a default-initialized model. finish() asserts the payload was
/// fully consumed (trailing bytes mean a format skew).
class Decoder {
 public:
  Decoder(std::string payload, std::string context);

  std::uint8_t u8(const char* field);
  std::uint32_t u32(const char* field);
  std::uint64_t u64(const char* field);
  bool boolean(const char* field);
  /// Rejects NaN/Inf with the field named; bit-exact otherwise.
  double f64(const char* field);
  std::string str(const char* field);
  std::vector<double> f64s(const char* field);
  std::vector<std::uint64_t> u64s(const char* field);
  std::vector<std::size_t> counts(const char* field);

  std::size_t remaining() const { return payload_.size() - cursor_; }
  void finish();

 private:
  /// Reads `size` raw bytes or throws naming `field`.
  const char* take(std::size_t size, const char* field);
  /// Reads a u64 element count and validates count * elem_size fits in the
  /// remaining payload before any allocation happens.
  std::uint64_t length(std::size_t elem_size, const char* field);

  std::string payload_;
  std::string context_;
  std::size_t cursor_ = 0;
};

/// Writes a bundle: header up front, one CRC-framed section per call,
/// end marker + flush on finish(). The destructor checks finish() was
/// called so a half-written bundle cannot pass silently.
class BundleWriter {
 public:
  explicit BundleWriter(std::ostream& out);
  ~BundleWriter();
  BundleWriter(const BundleWriter&) = delete;
  BundleWriter& operator=(const BundleWriter&) = delete;

  void section(SectionKind kind, const Encoder& payload);
  void finish();

  std::size_t bytes_written() const { return bytes_written_; }
  std::size_t sections_written() const { return sections_written_; }

 private:
  std::ostream& out_;
  std::size_t bytes_written_ = 0;
  std::size_t sections_written_ = 0;
  bool finished_ = false;
};

/// Reads a bundle: validates magic + version up front; expect() pulls the
/// next section, verifies its CRC and kind, and hands back a Decoder over
/// the payload. finish() consumes the end marker.
class BundleReader {
 public:
  explicit BundleReader(std::istream& in);

  Decoder expect(SectionKind kind);

  /// Like expect(), but when the next section has a *different* kind it is
  /// pushed back (one section deep) and std::nullopt is returned, leaving
  /// that section for the following expect()/finish() call. This is how
  /// loaders treat a newly appended SectionKind as optional: bundles written
  /// before the kind existed keep loading, with the caller substituting a
  /// default. CRC/truncation errors still throw.
  std::optional<Decoder> try_expect(SectionKind kind);

  void finish();

 private:
  /// Reads the next framed record; returns its kind and fills `payload`.
  /// Consumes the pushback slot first when try_expect() declined a section.
  SectionKind next_section(std::string& payload, SectionKind expected);

  std::istream& in_;
  bool done_ = false;
  std::optional<std::pair<SectionKind, std::string>> pushback_;
};

}  // namespace forumcast::artifact
