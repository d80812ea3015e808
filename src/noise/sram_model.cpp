#include "noise/sram_model.hpp"

#include <array>
#include <cmath>

#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::noise {

namespace {

/// Unit-variance value of a centred Binomial(64, ½) draw's popcount:
/// (popcount − 32) / 4.
double z_from_popcount(int popcount) {
  return (static_cast<double>(popcount) - 32.0) / 4.0;
}

/// pmf of popcount(uniform 64-bit) = C(64,k) / 2^64.
const std::array<double, 65>& binomial64_pmf() {
  static const std::array<double, 65> pmf = [] {
    std::array<double, 65> out{};
    // log C(64,k) via lgamma for numeric safety.
    for (int k = 0; k <= 64; ++k) {
      const double logc = std::lgamma(65.0) - std::lgamma(k + 1.0) -
                          std::lgamma(65.0 - k);
      out[static_cast<std::size_t>(k)] =
          std::exp(logc - 64.0 * std::log(2.0));
    }
    return out;
  }();
  return pmf;
}

/// P(Z > x) for Z = (Binom(64,½) − 32)/4: tail of popcount > 32 + 4x.
double binomial_tail(double x) {
  const double cut = 32.0 + 4.0 * x;
  const auto& pmf = binomial64_pmf();
  double tail = 0.0;
  for (int k = 64; k >= 0; --k) {
    if (static_cast<double>(k) <= cut) break;
    tail += pmf[static_cast<std::size_t>(k)];
  }
  return tail;
}

}  // namespace

double SramNoiseParams::sigma_disturb() const {
  CIM_ASSERT(bl_cap_ff > 0.0);
  return disturb_base / std::sqrt(bl_cap_ff);
}

SramCellModel::SramCellModel(SramNoiseParams params, std::uint64_t seed)
    : params_(params), seed_(seed) {
  CIM_REQUIRE(params_.sigma_vth > 0.0, "sigma_vth must be positive");
  CIM_REQUIRE(params_.snm_slope > 0.0, "snm_slope must be positive");
  CIM_REQUIRE(params_.bl_cap_ff > 0.0,
              "bit-line capacitance must be positive");
  // A negative scale would make larger disturbance draws flip less, and
  // PhaseSettler's threshold table relies on the opposite.
  CIM_REQUIRE(params_.disturb_base >= 0.0,
              "disturbance scale must be non-negative");
}

CellTraits SramCellModel::traits(std::uint64_t cell_id) const {
  CellTraits t;
  t.delta_vth = params_.sigma_vth *
                z_from_popcount(detail::draw_popcount(seed_, cell_id,
                                                      detail::kVthSalt));
  t.preferred_bit = detail::preferred_bit(seed_, cell_id);
  return t;
}

double SramCellModel::snm(double vdd, double delta_vth) const {
  const double ideal = params_.snm_slope * (vdd - params_.snm_v0);
  return std::max(0.0, ideal - std::abs(delta_vth));
}

double SramCellModel::flip_probability(double vdd, double delta_vth) const {
  const double margin = snm(vdd, delta_vth);
  // A cell with zero read margin cannot hold anti-preferred data through a
  // pseudo-read: it falls to its preferred state with certainty, which is
  // what drives the error rate to 50% at very low supply (Fig. 6(b)).
  if (margin <= 0.0) return 1.0;
  return binomial_tail(margin / params_.sigma_disturb());
}

bool SramCellModel::flip_rule(double vdd, int vth_popcount,
                              int disturb_popcount) const {
  const double delta_vth = params_.sigma_vth * z_from_popcount(vth_popcount);
  const double margin = snm(vdd, delta_vth);
  if (margin <= 0.0) return true;  // no read margin: certain flip
  const double disturb =
      params_.sigma_disturb() * z_from_popcount(disturb_popcount);
  return disturb > margin;
}

bool SramCellModel::flips(std::uint64_t cell_id, std::uint64_t epoch,
                          double vdd) const {
  return flip_rule(
      vdd, detail::draw_popcount(seed_, cell_id, detail::kVthSalt),
      detail::draw_popcount(seed_ ^ detail::kDisturbSeedSalt, cell_id,
                            epoch));
}

bool SramCellModel::is_stuck(std::uint64_t cell_id) const {
  if (params_.stuck_cell_rate <= 0.0) return false;
  std::uint64_t s = util::hash_combine(seed_ ^ 0x57DCULL, cell_id);
  const std::uint64_t bits = util::splitmix64(s);
  const double u =
      (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
  return u < params_.stuck_cell_rate;
}

bool SramCellModel::settled_value(std::uint64_t cell_id, std::uint64_t epoch,
                                  double vdd, bool written) const {
  const bool preferred = detail::preferred_bit(seed_, cell_id);
  // A stuck cell holds its preferred value no matter what was written or
  // how high the supply is.
  if (is_stuck(cell_id)) return preferred;
  if (written == preferred) return written;  // stable direction
  return flips(cell_id, epoch, vdd) ? preferred : written;
}

double SramCellModel::expected_error_rate(double vdd) const {
  // ΔVth takes the same 65 discrete values as the draw model, so the
  // expectation is an exact finite sum.
  const auto& pmf = binomial64_pmf();
  double acc = 0.0;
  for (int k = 0; k <= 64; ++k) {
    const double dvth =
        params_.sigma_vth * (static_cast<double>(k) - 32.0) / 4.0;
    acc += pmf[static_cast<std::size_t>(k)] * flip_probability(vdd, dvth);
  }
  // Half of random stored bits are anti-preferred.
  return 0.5 * acc;
}

PhaseSettler::PhaseSettler(const SramCellModel& model, std::uint64_t epoch,
                           double vdd)
    : model_(&model),
      seed_(model.seed_),
      disturb_seed_(model.seed_ ^ detail::kDisturbSeedSalt),
      epoch_(epoch),
      check_stuck_(model.params_.stuck_cell_rate > 0.0) {
  // flip_rule() is monotone in the disturbance popcount (the draw's scale
  // is non-negative), so each ΔVth popcount's verdict is a threshold. The
  // read margin shrinks as ΔVth moves away from the centre popcount 32 in
  // either direction, so the threshold only falls along each half and one
  // downward scan per half finds it: at most 2 × (33 + 65) evaluations.
  for (const int step : {-1, 1}) {
    int quiet = 64;
    for (int k = 32; k >= 0 && k <= 64; k += step) {
      while (quiet >= 0 && model.flip_rule(vdd, k, quiet)) --quiet;
      quiet_[static_cast<std::size_t>(k)] = static_cast<std::int8_t>(quiet);
    }
  }
}

}  // namespace cim::noise
