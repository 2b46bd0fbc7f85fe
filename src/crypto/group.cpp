#include "crypto/group.h"

#include "base/error.h"
#include "crypto/modmath.h"
#include "crypto/sha256.h"

namespace simulcast::crypto {

namespace {

// 62-bit safe prime p = 2q + 1, verified at first use by the SchnorrGroup
// constructor; g = 2^2 generates the order-q quadratic-residue subgroup.
constexpr std::uint64_t kStandardP = 3599462771108323727ULL;
constexpr std::uint64_t kStandardQ = 1799731385554161863ULL;
constexpr std::uint64_t kStandardG = 4ULL;

}  // namespace

FixedBaseTable::FixedBaseTable(std::uint64_t base, const Montgomery& mont)
    : mont_(mont), table_(kWindows) {
  // window_base walks base^(256^i); each row is that power's digit ladder.
  std::uint64_t window_base = mont_.to(base);
  for (std::size_t i = 0; i < kWindows; ++i) {
    table_[i][0] = mont_.one();
    for (std::size_t d = 1; d < 256; ++d) table_[i][d] = mont_.mul(table_[i][d - 1], window_base);
    window_base = mont_.mul(table_[i][255], window_base);
  }
}

std::uint64_t FixedBaseTable::mul_exp(std::uint64_t acc, std::uint64_t e) const noexcept {
  for (std::size_t i = 0; i < kWindows && e != 0; ++i, e >>= 8) {
    const std::uint64_t d = e & 0xff;
    if (d != 0) acc = mont_.mul(acc, table_[i][d]);
  }
  return acc;
}

SchnorrGroup::SchnorrGroup(std::uint64_t p, std::uint64_t q, std::uint64_t g)
    : p_(p), q_(q), g_(g) {
  if (!is_prime_u64(p)) throw UsageError("SchnorrGroup: p not prime");
  if (!is_prime_u64(q)) throw UsageError("SchnorrGroup: q not prime");
  if (p != 2 * q + 1) throw UsageError("SchnorrGroup: p != 2q + 1");
  mont_ = Montgomery(p);
  if (g <= 1 || !is_element(g)) throw UsageError("SchnorrGroup: g not an order-q element");
  h_ = hash_to_group("simulcast/pedersen-h/v1");
  g_table_ = FixedBaseTable(g_, mont_);
  h_table_ = FixedBaseTable(h_, mont_);
}

const SchnorrGroup& SchnorrGroup::standard() {
  static const SchnorrGroup group(kStandardP, kStandardQ, kStandardG);
  return group;
}

std::uint64_t SchnorrGroup::exp_g(const Zq& e) const {
  if (e.modulus() != q_) throw UsageError("SchnorrGroup::exp: exponent modulus != q");
  return g_table_.exp(e.value());
}

std::uint64_t SchnorrGroup::exp_h(const Zq& e) const {
  if (e.modulus() != q_) throw UsageError("SchnorrGroup::exp: exponent modulus != q");
  return h_table_.exp(e.value());
}

std::uint64_t SchnorrGroup::exp_gh(const Zq& a, const Zq& b) const {
  if (a.modulus() != q_ || b.modulus() != q_)
    throw UsageError("SchnorrGroup::exp: exponent modulus != q");
  return h_table_.mul_exp(g_table_.exp(a.value()), b.value());
}

std::uint64_t SchnorrGroup::exp(std::uint64_t base, const Zq& e) const {
  if (e.modulus() != q_) throw UsageError("SchnorrGroup::exp: exponent modulus != q");
  return mont_.from(mont_.pow(mont_.to(base), e.value()));
}

std::uint64_t SchnorrGroup::mul(std::uint64_t a, std::uint64_t b) const {
  return mont_.mul(mont_.to(a), b);  // aR * b * R^-1 = ab
}

std::uint64_t SchnorrGroup::inv(std::uint64_t a) const {
  return invmod(a, p_);
}

bool SchnorrGroup::is_element(std::uint64_t a) const {
  return a != 0 && a < p_ && jacobi(a, p_) == 1;
}

std::uint64_t SchnorrGroup::hash_to_group(std::string_view label) const {
  // Squaring any nonzero residue lands in the QR subgroup, which has prime
  // order q, so the result generates it unless it equals 1.
  std::uint64_t counter = 0;
  for (;;) {
    ByteWriter w;
    w.str(label);
    w.u64(p_);
    w.u64(counter++);
    const Digest d = sha256(w.data());
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x = (x << 8) | d[static_cast<std::size_t>(i)];
    x %= p_;
    if (x <= 1) continue;
    const std::uint64_t candidate = mul(x, x);
    if (candidate != 1) return candidate;
  }
}

}  // namespace simulcast::crypto
