#include "common/io.hpp"

#include <bit>
#include <cstring>

namespace she {

namespace {
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

// The format is little-endian on disk; byteswap on big-endian hosts.
template <typename T>
T to_le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out;
    auto* src = reinterpret_cast<const unsigned char*>(&v);
    auto* dst = reinterpret_cast<unsigned char*>(&out);
    for (std::size_t i = 0; i < sizeof(T); ++i) dst[i] = src[sizeof(T) - 1 - i];
    return out;
  }
  return v;
}
}  // namespace

void BinaryWriter::raw(const void* p, std::size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!os_) throw SerializeError("BinaryWriter: write failed");
}

void BinaryWriter::u32(std::uint32_t v) {
  v = to_le(v);
  raw(&v, 4);
}

void BinaryWriter::u64(std::uint64_t v) {
  v = to_le(v);
  raw(&v, 8);
}

void BinaryWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  u64(bits);
}

// Arrays go out in one write on little-endian hosts: the in-memory layout
// already is the on-disk one.
void BinaryWriter::u64_vector(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  if constexpr (kLittleEndian) {
    raw(v.data(), v.size() * 8);
  } else {
    for (std::uint64_t x : v) u64(x);
  }
}

void BinaryWriter::u32_vector(const std::vector<std::uint32_t>& v) {
  u64(v.size());
  if constexpr (kLittleEndian) {
    raw(v.data(), v.size() * 4);
  } else {
    for (std::uint32_t x : v) u32(x);
  }
}

void BinaryReader::raw(void* p, std::size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n)
    throw SerializeError("BinaryReader: unexpected end of stream");
}

std::optional<std::uint64_t> BinaryReader::remaining_bytes() {
  const std::streampos pos = is_.tellg();
  if (pos == std::streampos(-1)) {
    is_.clear();
    return std::nullopt;
  }
  is_.seekg(0, std::ios::end);
  const std::streampos end = is_.tellg();
  is_.seekg(pos);
  if (end == std::streampos(-1) || end < pos || !is_) {
    is_.clear();
    is_.seekg(pos);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - pos);
}

void BinaryReader::check_length(std::uint64_t n, std::size_t elem_bytes) {
  if (n > (std::uint64_t{1} << 32))
    throw SerializeError("BinaryReader: implausible vector length");
  if (const auto rem = remaining_bytes(); rem && n > *rem / elem_bytes)
    throw SerializeError("BinaryReader: vector length " + std::to_string(n) +
                         " exceeds the " + std::to_string(*rem) +
                         " bytes remaining in the stream");
}

std::uint8_t BinaryReader::u8() {
  std::uint8_t v;
  raw(&v, 1);
  return v;
}

std::uint32_t BinaryReader::u32() {
  std::uint32_t v;
  raw(&v, 4);
  return to_le(v);
}

std::uint64_t BinaryReader::u64() {
  std::uint64_t v;
  raw(&v, 8);
  return to_le(v);
}

double BinaryReader::f64() {
  std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

void BinaryReader::expect_tag(const char (&t)[5]) {
  char got[4];
  raw(got, 4);
  if (std::memcmp(got, t, 4) != 0)
    throw SerializeError(std::string("BinaryReader: expected tag '") + t +
                         "', stream holds something else");
}

std::string BinaryReader::read_tag() {
  char got[4];
  raw(got, 4);
  return std::string(got, 4);
}

std::vector<std::uint64_t> BinaryReader::u64_vector() {
  std::uint64_t n = u64();
  check_length(n, 8);
  std::vector<std::uint64_t> v(n);
  if constexpr (kLittleEndian) {
    raw(v.data(), v.size() * 8);
  } else {
    for (auto& x : v) x = u64();
  }
  return v;
}

std::vector<std::uint32_t> BinaryReader::u32_vector() {
  std::uint64_t n = u64();
  check_length(n, 4);
  std::vector<std::uint32_t> v(n);
  if constexpr (kLittleEndian) {
    raw(v.data(), v.size() * 4);
  } else {
    for (auto& x : v) x = u32();
  }
  return v;
}

}  // namespace she
