// Protocol-level tests for the model-artifact layer: primitive round trips,
// worst-case doubles, and the bundle framing's corruption/truncation
// behavior (every failure must be a named CheckError, never partial state).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "artifact/artifact.hpp"
#include "util/check.hpp"

namespace forumcast::artifact {
namespace {

TEST(Artifact, Crc32MatchesKnownVectors) {
  // IEEE/zlib polynomial reference values.
  EXPECT_EQ(crc32(""), 0x00000000u);
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414fa339u);
}

// The table-driven crc32 against a byte-at-a-time loop with no table (each
// byte shifted through the polynomial bit by bit) over every length 0..4095
// at every start offset 0..7: the eight-byte steps, their tails and
// unaligned starts. Each offset's reference runs once over the whole
// buffer; the CRC of a prefix is the running value at its end.
TEST(Artifact, Crc32MatchesBytewiseReference) {
  constexpr std::size_t kMaxLength = 4095;
  constexpr std::size_t kOffsets = 8;
  std::string buffer(kMaxLength + kOffsets, '\0');
  std::uint32_t state = 12345;
  for (char& c : buffer) {
    state = state * 1103515245u + 12345u;
    c = static_cast<char>(state >> 24);
  }
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    std::uint32_t running = 0xffffffffu;
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(crc32(std::string_view(buffer).substr(offset, length)),
                running ^ 0xffffffffu)
          << "offset=" << offset << " length=" << length;
      running ^= static_cast<unsigned char>(buffer[offset + length]);
      for (int bit = 0; bit < 8; ++bit) {
        running = (running >> 1) ^ ((running & 1u) ? 0xedb88320u : 0u);
      }
    }
  }
}

TEST(Artifact, PrimitivesRoundTrip) {
  Encoder enc;
  enc.u8(0xab);
  enc.u32(0xdeadbeefu);
  enc.u64(0x0123456789abcdefULL);
  enc.boolean(true);
  enc.boolean(false);
  enc.f64(3.14159, "pi");
  enc.str("hello");
  enc.str("");
  const std::vector<double> doubles = {1.0, -2.5, 0.0};
  enc.f64s(doubles, "doubles");
  const std::vector<std::uint64_t> words = {7, 8};
  enc.u64s(words);
  const std::vector<std::size_t> sizes = {0, 1, 1u << 20};
  enc.counts(sizes);

  Decoder dec(enc.bytes(), "test");
  EXPECT_EQ(dec.u8("a"), 0xab);
  EXPECT_EQ(dec.u32("b"), 0xdeadbeefu);
  EXPECT_EQ(dec.u64("c"), 0x0123456789abcdefULL);
  EXPECT_TRUE(dec.boolean("e"));
  EXPECT_FALSE(dec.boolean("f"));
  EXPECT_EQ(dec.f64("g"), 3.14159);
  EXPECT_EQ(dec.str("h"), "hello");
  EXPECT_EQ(dec.str("i"), "");
  EXPECT_EQ(dec.f64s("j"), doubles);
  EXPECT_EQ(dec.u64s("k"), words);
  EXPECT_EQ(dec.counts("l"), sizes);
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_NO_THROW(dec.finish());
}

TEST(Artifact, WorstCaseDoublesRoundTripBitExactly) {
  const std::vector<double> nasty = {
      -0.0,
      0.0,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest denormal
      -std::numeric_limits<double>::denorm_min(),
      0.1,                                         // not representable exactly
      1.0 / 3.0,
      std::nextafter(1.0, 2.0),
      std::nextafter(1.0, 0.0),
      -1.7976931348623157e308,
      4.9406564584124654e-324,
  };
  Encoder enc;
  enc.f64s(nasty, "nasty");
  Decoder dec(enc.bytes(), "test");
  const auto back = dec.f64s("nasty");
  ASSERT_EQ(back.size(), nasty.size());
  for (std::size_t i = 0; i < nasty.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(nasty[i]))
        << "index " << i;
  }
  // The signbit of -0.0 must survive, not just the value.
  EXPECT_TRUE(std::signbit(back[0]));
  EXPECT_FALSE(std::signbit(back[1]));
}

TEST(Artifact, EncoderRejectsNonFiniteNamingField) {
  Encoder enc;
  try {
    enc.f64(std::numeric_limits<double>::quiet_NaN(), "alpha");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("alpha"), std::string::npos);
  }
  EXPECT_THROW(enc.f64(std::numeric_limits<double>::infinity(), "beta"),
               util::CheckError);
  EXPECT_THROW(enc.f64(-std::numeric_limits<double>::infinity(), "beta"),
               util::CheckError);
}

TEST(Artifact, DecoderRejectsNonFiniteNamingField) {
  // The encoder refuses NaN, so smuggle the bits in through u64.
  Encoder enc;
  enc.u64(std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN()));
  enc.u64(std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity()));
  Decoder dec(enc.bytes(), "test");
  try {
    dec.f64("omega");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("omega"), std::string::npos);
    EXPECT_NE(what.find("non-finite"), std::string::npos);
  }
  // The cursor advanced past the NaN; the next value is +inf and must be
  // rejected too.
  EXPECT_THROW(dec.f64("inf"), util::CheckError);
}

TEST(Artifact, DecoderTruncationNamesFieldAndSection) {
  Encoder enc;
  enc.u32(7);
  Decoder dec(enc.bytes(), "extractor");
  dec.u32("ok");
  try {
    dec.u64("missing_field");
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("extractor"), std::string::npos);
    EXPECT_NE(what.find("missing_field"), std::string::npos);
    EXPECT_NE(what.find("truncated"), std::string::npos);
  }
}

TEST(Artifact, DecoderRejectsImplausibleCounts) {
  // A u64 count far beyond the remaining payload must fail before any
  // allocation, naming the field.
  Encoder enc;
  enc.u64(std::numeric_limits<std::uint64_t>::max());
  Decoder dec(enc.bytes(), "test");
  EXPECT_THROW(dec.f64s("huge"), util::CheckError);
}

TEST(Artifact, DecoderRejectsTrailingBytes) {
  Encoder enc;
  enc.u32(1);
  enc.u32(2);
  Decoder dec(enc.bytes(), "test");
  dec.u32("first");
  EXPECT_THROW(dec.finish(), util::CheckError);
}

TEST(Artifact, DecoderRejectsNonBooleanByte) {
  Encoder enc;
  enc.u8(2);
  Decoder dec(enc.bytes(), "test");
  EXPECT_THROW(dec.boolean("flag"), util::CheckError);
}

std::string small_bundle() {
  std::ostringstream out;
  BundleWriter writer(out);
  Encoder meta;
  meta.u64(3);
  meta.str("hello");
  writer.section(SectionKind::kMeta, meta);
  Encoder model;
  model.f64(2.5, "weight");
  writer.section(SectionKind::kModel, model);
  writer.finish();
  return std::move(out).str();
}

TEST(Artifact, BundleRoundTrip) {
  const std::string bytes = small_bundle();
  std::istringstream in(bytes);
  BundleReader reader(in);
  Decoder meta = reader.expect(SectionKind::kMeta);
  EXPECT_EQ(meta.u64("n"), 3u);
  EXPECT_EQ(meta.str("s"), "hello");
  meta.finish();
  Decoder model = reader.expect(SectionKind::kModel);
  EXPECT_EQ(model.f64("w"), 2.5);
  model.finish();
  EXPECT_NO_THROW(reader.finish());
}

TEST(Artifact, BundleWriterCountsSectionsAndBytes) {
  std::ostringstream out;
  BundleWriter writer(out);
  Encoder payload;
  payload.u64(1);
  writer.section(SectionKind::kModel, payload);
  writer.finish();
  EXPECT_EQ(writer.sections_written(), 1u);  // end marker is framing
  EXPECT_EQ(writer.bytes_written(), out.str().size());
}

TEST(Artifact, BundleRejectsBadMagic) {
  std::string bytes = small_bundle();
  bytes[0] = 'X';
  std::istringstream in(bytes);
  EXPECT_THROW(BundleReader reader(in), util::CheckError);
}

TEST(Artifact, BundleRejectsUnsupportedVersion) {
  std::string bytes = small_bundle();
  bytes[4] = static_cast<char>(kFormatVersion + 1);
  std::istringstream in(bytes);
  EXPECT_THROW(BundleReader reader(in), util::CheckError);
}

TEST(Artifact, BundleRejectsWrongSectionKind) {
  const std::string bytes = small_bundle();
  std::istringstream in(bytes);
  BundleReader reader(in);
  try {
    reader.expect(SectionKind::kExtractor);  // first section is kMeta
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("extractor"), std::string::npos);
    EXPECT_NE(what.find("meta"), std::string::npos);
  }
}

TEST(Artifact, BundleDetectsSingleByteCorruptionEverywhere) {
  // Flip every byte after the header in turn: each corruption must surface
  // as a CheckError (CRC mismatch, bad kind, or bad field) — never as a
  // silently different decode.
  const std::string bytes = small_bundle();
  for (std::size_t i = 8; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    std::istringstream in(corrupt);
    bool threw = false;
    try {
      BundleReader reader(in);
      Decoder meta = reader.expect(SectionKind::kMeta);
      const std::uint64_t n = meta.u64("n");
      const std::string s = meta.str("s");
      meta.finish();
      Decoder model = reader.expect(SectionKind::kModel);
      model.f64("w");
      model.finish();
      reader.finish();
      // Fully decoded: the values must be untouched (possible only if the
      // flip landed in a part that never reaches the decoder, which the
      // framing makes impossible — every byte is CRC-covered).
      EXPECT_EQ(n, 3u) << "byte " << i;
      EXPECT_EQ(s, "hello") << "byte " << i;
    } catch (const util::CheckError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "corrupting byte " << i << " went undetected";
  }
}

TEST(Artifact, BundleDetectsTruncationAtEveryByte) {
  // Every proper prefix of a valid bundle must fail the full read sequence
  // with a CheckError — a torn write can never look complete.
  const std::string bytes = small_bundle();
  for (std::size_t length = 0; length < bytes.size(); ++length) {
    std::istringstream in(bytes.substr(0, length));
    EXPECT_THROW(
        {
          BundleReader reader(in);
          Decoder meta = reader.expect(SectionKind::kMeta);
          meta.u64("n");
          meta.str("s");
          meta.finish();
          Decoder model = reader.expect(SectionKind::kModel);
          model.f64("w");
          model.finish();
          reader.finish();
        },
        util::CheckError)
        << "prefix of " << length << " bytes parsed as a whole bundle";
  }
}

TEST(Artifact, ReaderRefusesReadsPastEndMarker) {
  const std::string bytes = small_bundle();
  std::istringstream in(bytes);
  BundleReader reader(in);
  reader.expect(SectionKind::kMeta);
  reader.expect(SectionKind::kModel);
  reader.finish();
  EXPECT_THROW(reader.expect(SectionKind::kModel), util::CheckError);
  EXPECT_THROW(reader.finish(), util::CheckError);
}

TEST(Artifact, FinishRejectsMissingEndMarker) {
  // A bundle whose writer never finish()ed (simulated by chopping the end
  // marker) must fail finish().
  const std::string bytes = small_bundle();
  const std::string chopped = bytes.substr(0, bytes.size() - 12);
  std::istringstream in(chopped);
  BundleReader reader(in);
  reader.expect(SectionKind::kMeta);
  reader.expect(SectionKind::kModel);
  EXPECT_THROW(reader.finish(), util::CheckError);
}

}  // namespace
}  // namespace forumcast::artifact
