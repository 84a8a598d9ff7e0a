#include "crypto/md5.hpp"

#include <algorithm>
#include <iterator>

#include "util/wordload.hpp"

namespace mc::crypto {

namespace {

constexpr std::uint32_t kInit[4] = {0x67452301u, 0xefcdab89u, 0x98badcfeu,
                                    0x10325476u};

constexpr std::uint32_t rotl(std::uint32_t x, int s) {
  return (x << s) | (x >> (32 - s));
}

// One step of each round (RFC 1321 §3.4): a = b + ((a + F(b,c,d) + x + k)
// <<< S).  The shift is a template argument so every rotate is an
// immediate; F and G use the branch-free select forms
// d ^ (b & (c ^ d)) and c ^ (d & (b ^ c)).
template <int S>
inline void step_f(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + rotl(a + (d ^ (b & (c ^ d))) + x + k, S);
}

template <int S>
inline void step_g(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + rotl(a + (c ^ (d & (b ^ c))) + x + k, S);
}

template <int S>
inline void step_h(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + rotl(a + (b ^ c ^ d) + x + k, S);
}

template <int S>
inline void step_i(std::uint32_t& a, std::uint32_t b, std::uint32_t c,
                   std::uint32_t d, std::uint32_t x, std::uint32_t k) {
  a = b + rotl(a + (c ^ (b | ~d)) + x + k, S);
}

}  // namespace

void Md5::reset() {
  std::copy(std::begin(kInit), std::end(kInit), state_);
  total_bytes_ = 0;
  buffered_ = 0;
}

void Md5::process_block(const std::uint8_t* block) {
  std::uint32_t m[16];
  for (int i = 0; i < 16; ++i) {
    m[i] = load_le32_word(block + 4 * i);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];

  // Four fully unrolled 16-step rounds.  Message index, shift and constant
  // K[i] = floor(2^32 * |sin(i + 1)|) are compile-time per step, and the
  // (a, b, c, d) rotation is done by renaming instead of moves.
  step_f<7>(a, b, c, d, m[0], 0xd76aa478u);
  step_f<12>(d, a, b, c, m[1], 0xe8c7b756u);
  step_f<17>(c, d, a, b, m[2], 0x242070dbu);
  step_f<22>(b, c, d, a, m[3], 0xc1bdceeeu);
  step_f<7>(a, b, c, d, m[4], 0xf57c0fafu);
  step_f<12>(d, a, b, c, m[5], 0x4787c62au);
  step_f<17>(c, d, a, b, m[6], 0xa8304613u);
  step_f<22>(b, c, d, a, m[7], 0xfd469501u);
  step_f<7>(a, b, c, d, m[8], 0x698098d8u);
  step_f<12>(d, a, b, c, m[9], 0x8b44f7afu);
  step_f<17>(c, d, a, b, m[10], 0xffff5bb1u);
  step_f<22>(b, c, d, a, m[11], 0x895cd7beu);
  step_f<7>(a, b, c, d, m[12], 0x6b901122u);
  step_f<12>(d, a, b, c, m[13], 0xfd987193u);
  step_f<17>(c, d, a, b, m[14], 0xa679438eu);
  step_f<22>(b, c, d, a, m[15], 0x49b40821u);

  step_g<5>(a, b, c, d, m[1], 0xf61e2562u);
  step_g<9>(d, a, b, c, m[6], 0xc040b340u);
  step_g<14>(c, d, a, b, m[11], 0x265e5a51u);
  step_g<20>(b, c, d, a, m[0], 0xe9b6c7aau);
  step_g<5>(a, b, c, d, m[5], 0xd62f105du);
  step_g<9>(d, a, b, c, m[10], 0x02441453u);
  step_g<14>(c, d, a, b, m[15], 0xd8a1e681u);
  step_g<20>(b, c, d, a, m[4], 0xe7d3fbc8u);
  step_g<5>(a, b, c, d, m[9], 0x21e1cde6u);
  step_g<9>(d, a, b, c, m[14], 0xc33707d6u);
  step_g<14>(c, d, a, b, m[3], 0xf4d50d87u);
  step_g<20>(b, c, d, a, m[8], 0x455a14edu);
  step_g<5>(a, b, c, d, m[13], 0xa9e3e905u);
  step_g<9>(d, a, b, c, m[2], 0xfcefa3f8u);
  step_g<14>(c, d, a, b, m[7], 0x676f02d9u);
  step_g<20>(b, c, d, a, m[12], 0x8d2a4c8au);

  step_h<4>(a, b, c, d, m[5], 0xfffa3942u);
  step_h<11>(d, a, b, c, m[8], 0x8771f681u);
  step_h<16>(c, d, a, b, m[11], 0x6d9d6122u);
  step_h<23>(b, c, d, a, m[14], 0xfde5380cu);
  step_h<4>(a, b, c, d, m[1], 0xa4beea44u);
  step_h<11>(d, a, b, c, m[4], 0x4bdecfa9u);
  step_h<16>(c, d, a, b, m[7], 0xf6bb4b60u);
  step_h<23>(b, c, d, a, m[10], 0xbebfbc70u);
  step_h<4>(a, b, c, d, m[13], 0x289b7ec6u);
  step_h<11>(d, a, b, c, m[0], 0xeaa127fau);
  step_h<16>(c, d, a, b, m[3], 0xd4ef3085u);
  step_h<23>(b, c, d, a, m[6], 0x04881d05u);
  step_h<4>(a, b, c, d, m[9], 0xd9d4d039u);
  step_h<11>(d, a, b, c, m[12], 0xe6db99e5u);
  step_h<16>(c, d, a, b, m[15], 0x1fa27cf8u);
  step_h<23>(b, c, d, a, m[2], 0xc4ac5665u);

  step_i<6>(a, b, c, d, m[0], 0xf4292244u);
  step_i<10>(d, a, b, c, m[7], 0x432aff97u);
  step_i<15>(c, d, a, b, m[14], 0xab9423a7u);
  step_i<21>(b, c, d, a, m[5], 0xfc93a039u);
  step_i<6>(a, b, c, d, m[12], 0x655b59c3u);
  step_i<10>(d, a, b, c, m[3], 0x8f0ccc92u);
  step_i<15>(c, d, a, b, m[10], 0xffeff47du);
  step_i<21>(b, c, d, a, m[1], 0x85845dd1u);
  step_i<6>(a, b, c, d, m[8], 0x6fa87e4fu);
  step_i<10>(d, a, b, c, m[15], 0xfe2ce6e0u);
  step_i<15>(c, d, a, b, m[6], 0xa3014314u);
  step_i<21>(b, c, d, a, m[13], 0x4e0811a1u);
  step_i<6>(a, b, c, d, m[4], 0xf7537e82u);
  step_i<10>(d, a, b, c, m[11], 0xbd3af235u);
  step_i<15>(c, d, a, b, m[2], 0x2ad7d2bbu);
  step_i<21>(b, c, d, a, m[9], 0xeb86d391u);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

void Md5::update(ByteView data) {
  total_bytes_ += data.size();
  std::size_t offset = 0;

  if (buffered_ != 0) {
    const std::size_t take = std::min<std::size_t>(64 - buffered_, data.size());
    copy_bytes(MutableByteView(buffer_).subspan(buffered_), data.first(take));
    buffered_ += take;
    offset += take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    copy_bytes(MutableByteView(buffer_), data.subspan(offset));
    buffered_ = data.size() - offset;
  }
}

Digest Md5::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Pad: 0x80 then zeros until 56 mod 64, then the 64-bit LE bit length.
  static constexpr std::uint8_t kPad[64] = {0x80};
  const std::size_t pad_len =
      (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(ByteView(kPad, pad_len));

  std::uint8_t length_le[8];
  for (int i = 0; i < 8; ++i) {
    length_le[i] = static_cast<std::uint8_t>((bit_length >> (8 * i)) & 0xFF);
  }
  update(ByteView(length_le, 8));

  std::uint8_t out[kDigestBytes];
  for (int i = 0; i < 4; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] & 0xFF);
    out[4 * i + 1] = static_cast<std::uint8_t>((state_[i] >> 8) & 0xFF);
    out[4 * i + 2] = static_cast<std::uint8_t>((state_[i] >> 16) & 0xFF);
    out[4 * i + 3] = static_cast<std::uint8_t>((state_[i] >> 24) & 0xFF);
  }
  const Digest digest(out, kDigestBytes);
  reset();
  return digest;
}

}  // namespace mc::crypto
