// Compact SRAM pseudo-read error model (§IV.A, Fig. 6).
//
// The paper characterises noisy-bit generation with Monte-Carlo SPICE on a
// TSMC 16 nm PDK: the word-line is asserted while the cell's supply voltage
// is lowered, shrinking the butterfly curve's static noise margin (SNM)
// until bit-line disturbance flips the storage node. We reproduce this with
// a compact analytic model:
//
//   * each cell carries a fixed threshold-voltage mismatch
//     ΔVth ~ N(0, σ_vth²) and a *preferred* storage value — the direction
//     the asymmetric latch falls towards (spatially fixed after
//     fabrication, exactly the property §IV.B exploits);
//   * the read SNM shrinks linearly with supply voltage and is eroded by
//     the mismatch magnitude:  SNM(v) = max(0, k·(v − v₀) − |ΔVth|);
//   * during a pseudo-read the bit-line injects a disturbance
//     δ ~ N(0, σ_d²) with σ_d ∝ 1/√C_BL — larger bit-line capacitance
//     filters the disturbance and sharpens the error-rate transition, as
//     the paper observes in Fig. 6(b);
//   * a cell storing its anti-preferred value flips iff δ > SNM(v); a cell
//     already holding its preferred value is stable. Flips are sticky until
//     the next write-back (the paper's "irreversible" voltage flipping).
//
// With random stored data the population error rate is
// 0.5 · E[P(δ > SNM(v, ΔVth))], a sigmoid in v that rises from ~0 at the
// 800 mV nominal supply towards 50 % at 200 mV — the shape of Fig. 6(b).
//
// Implementation notes:
//   * All per-cell randomness is counter-hashed from (model seed, cell id,
//     epoch), so the fast and bit-level storage backends reproduce
//     bit-identical error patterns without storing per-cell state.
//   * Normal draws use the popcount-binomial approximation
//     Z ≈ (popcount(hash64) − 32) / 4, i.e. a centred Binomial(64, ½)
//     scaled to unit variance. It is within ~0.3 % of the normal CDF,
//     costs one hash + one popcount per draw (the model sits on the hot
//     path of every write-back), and — unlike a true normal — admits an
//     *exact* closed form for the expected error rate, so the analytic
//     curve and the Monte-Carlo measurement in Fig. 6(b) agree to
//     sampling error.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "util/random.hpp"

namespace cim::noise {

namespace detail {

/// Hash salts of the three per-cell draws. Shared by SramCellModel and
/// PhaseSettler so both derive the same bits from a cell id.
inline constexpr std::uint64_t kPreferredSalt = 0xBEEFULL;
inline constexpr std::uint64_t kVthSalt = 0x7281DULL;
inline constexpr std::uint64_t kDisturbSeedSalt = 0xF11BULL;

/// Popcount of the counter hash of (a, b, c): the Binomial(64, ½) draw
/// behind every normal sample of the model.
inline int draw_popcount(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = util::hash_combine(util::hash_combine(a, b), c);
  return std::popcount(util::splitmix64(s));
}

/// The direction cell `cell_id` of a model seeded `seed` falls towards.
inline bool preferred_bit(std::uint64_t seed, std::uint64_t cell_id) {
  std::uint64_t s = util::hash_combine(seed, cell_id ^ kPreferredSalt);
  return (util::splitmix64(s) & 1ULL) != 0;
}

}  // namespace detail

struct SramNoiseParams {
  double nominal_vdd = 0.80;   ///< V, 16 nm nominal supply
  double snm_slope = 0.50;     ///< V of read-SNM per V of supply
  double snm_v0 = 0.18;        ///< supply at which a perfect cell's SNM hits 0
  double sigma_vth = 0.05;     ///< V, per-cell mismatch std-dev
  double bl_cap_ff = 20.0;     ///< fF, bit-line capacitance
  double disturb_base = 0.045; ///< V·√fF, disturbance scale before C_BL filter
  /// Manufacturing defect density: fraction of bit cells stuck at a fixed
  /// value regardless of writes (hard faults, unlike the soft pseudo-read
  /// flips). 0 models a fully yielding die.
  double stuck_cell_rate = 0.0;

  /// Disturbance std-dev after bit-line filtering.
  double sigma_disturb() const;
};

/// Deterministic per-cell traits derived from (seed, cell id).
struct CellTraits {
  double delta_vth = 0.0;  ///< signed mismatch (V)
  bool preferred_bit = false;
};

class SramCellModel {
 public:
  SramCellModel() : SramCellModel(SramNoiseParams{}, 0x5EED) {}
  explicit SramCellModel(SramNoiseParams params,
                         std::uint64_t seed = 0x5EED);

  const SramNoiseParams& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }

  /// Fixed fabrication traits of a cell.
  CellTraits traits(std::uint64_t cell_id) const;

  /// Read SNM at supply `vdd` for mismatch `delta_vth`; clamped at 0.
  double snm(double vdd, double delta_vth) const;

  /// Probability that one pseudo-read at `vdd` flips a cell with mismatch
  /// `delta_vth` that stores its anti-preferred value (exact under the
  /// binomial disturbance model).
  double flip_probability(double vdd, double delta_vth) const;

  /// Deterministic flip decision for (cell, epoch) at `vdd`: true iff the
  /// hashed disturbance draw exceeds the cell's SNM. Only meaningful when
  /// the stored value is anti-preferred.
  bool flips(std::uint64_t cell_id, std::uint64_t epoch, double vdd) const;

  /// The stored value of a cell after a pseudo-read settles, given the
  /// written value. Applies the stuck-at mask, then the
  /// preferred-direction rule.
  bool settled_value(std::uint64_t cell_id, std::uint64_t epoch, double vdd,
                     bool written) const;

  /// True iff the cell is a manufacturing defect (stuck at its preferred
  /// value); deterministic per cell.
  bool is_stuck(std::uint64_t cell_id) const;

  /// Population error rate for random stored data at `vdd`:
  /// 0.5 · E_ΔVth[P(δ > SNM)], exact under the binomial draw model.
  double expected_error_rate(double vdd) const;

 private:
  friend class PhaseSettler;

  /// The flip rule on the popcounts of the ΔVth and disturbance draws: a
  /// cell with no read margin at `vdd` flips, else it flips iff the
  /// disturbance exceeds the margin. The one place the rule's double
  /// arithmetic lives; flips() and PhaseSettler both evaluate it.
  bool flip_rule(double vdd, int vth_popcount, int disturb_popcount) const;

  SramNoiseParams params_;
  std::uint64_t seed_ = 0;
};

/// SramCellModel::settled_value for every cell of one write-back phase
/// (epoch, V_DD), at a fraction of the cost.
///
/// ΔVth and the disturbance are each (popcount − 32) / 4 of a hash, so at a
/// fixed V_DD the flip rule depends only on two popcounts. The constructor
/// evaluates flip_rule() into a 65-entry table: for each ΔVth popcount, the
/// largest disturbance popcount that does not flip. settle() then hashes
/// the preferred bit of every cell, the ΔVth draw only for anti-preferred
/// cells, and the disturbance draw only when the table entry leaves the
/// outcome open. The result is bit-identical to settled_value();
/// tests/test_noise_sram.cpp checks it cell by cell and popcount pair by
/// popcount pair.
class PhaseSettler {
 public:
  PhaseSettler(const SramCellModel& model, std::uint64_t epoch, double vdd);

  /// Same value as model.settled_value(cell_id, epoch, vdd, written).
  bool settle(std::uint64_t cell_id, bool written) const {
    const bool preferred = detail::preferred_bit(seed_, cell_id);
    // The preferred direction is stable, and a stuck cell holds it too.
    if (written == preferred) return written;
    return anti_flips(cell_id) ? preferred : written;
  }

  /// settle() of the `noisy` low bits of `value` at once, bit b being cell
  /// first_cell + b; higher bits pass through. The word's preferred-bit
  /// hashes are independent, so they overlap instead of each ending in a
  /// hard-to-predict branch.
  std::uint8_t settle_word(std::uint64_t first_cell, std::uint8_t value,
                           std::uint32_t noisy) const {
    unsigned preferred = 0;
    for (std::uint32_t b = 0; b < noisy; ++b) {
      preferred |= static_cast<unsigned>(
                       detail::preferred_bit(seed_, first_cell + b))
                   << b;
    }
    unsigned flips = 0;
    for (unsigned anti = (value ^ preferred) & ((1U << noisy) - 1U);
         anti != 0; anti &= anti - 1U) {
      const int b = std::countr_zero(anti);
      if (anti_flips(first_cell + static_cast<unsigned>(b))) flips |= 1U << b;
    }
    return static_cast<std::uint8_t>(value ^ flips);
  }

  /// The table's verdict for a cell storing its anti-preferred value
  /// whose draws have these popcounts (each 0..64).
  bool flips_at(int vth_popcount, int disturb_popcount) const {
    return disturb_popcount > quiet_[static_cast<std::size_t>(vth_popcount)];
  }

 private:
  /// Whether a cell storing its anti-preferred value falls to the
  /// preferred one.
  bool anti_flips(std::uint64_t cell_id) const {
    if (check_stuck_ && model_->is_stuck(cell_id)) return true;
    const int vth = detail::draw_popcount(seed_, cell_id, detail::kVthSalt);
    const int quiet = quiet_[static_cast<std::size_t>(vth)];
    // −1 (no read margin) and 64 (no draw beats the margin) decide the
    // cell without hashing its disturbance draw.
    if (quiet < 0 || quiet >= 64) return quiet < 0;
    return flips_at(vth,
                    detail::draw_popcount(disturb_seed_, cell_id, epoch_));
  }

  const SramCellModel* model_;
  std::uint64_t seed_;
  std::uint64_t disturb_seed_;
  std::uint64_t epoch_;
  bool check_stuck_;
  /// Largest non-flipping disturbance popcount per ΔVth popcount; −1 when
  /// every draw flips the cell.
  std::array<std::int8_t, 65> quiet_{};
};

}  // namespace cim::noise
