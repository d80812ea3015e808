#include "cim/storage.hpp"

#include <algorithm>
#include <bit>
#include <optional>

#include "util/error.hpp"
#include "util/parallel_for.hpp"

namespace cim::hw {

StorageCounters& StorageCounters::operator+=(const StorageCounters& other) {
  macs += other.macs;
  mac_bit_reads += other.mac_bit_reads;
  writeback_events += other.writeback_events;
  writeback_bits += other.writeback_bits;
  pseudo_read_flips += other.pseudo_read_flips;
  return *this;
}

namespace {

class StorageBase : public WeightStorage {
 public:
  StorageBase(std::uint32_t rows, std::uint32_t cols,
              const noise::SramCellModel* model, std::uint64_t cell_base,
              std::uint32_t weight_bits)
      : rows_(rows),
        cols_(cols),
        bits_(weight_bits),
        model_(model),
        cell_base_(cell_base) {
    CIM_REQUIRE(rows_ >= 1 && cols_ >= 1, "storage needs a non-empty grid");
    CIM_REQUIRE(bits_ >= 1 && bits_ <= 8, "weight precision must be 1..8");
  }

  std::uint32_t rows() const override { return rows_; }
  std::uint32_t cols() const override { return cols_; }
  std::uint32_t weight_bits() const override { return bits_; }

 protected:
  const noise::SramCellModel* cell_model() const override { return model_; }
  /// Noisy low bits per weight a write-back of `phase` settles.
  std::uint32_t noisy_bits(const noise::SchedulePhase& phase) const {
    return model_ ? std::min(phase.noisy_lsbs, bits_) : 0;
  }

  std::size_t weight_count() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  std::size_t index(std::uint32_t row, std::uint32_t col) const {
    CIM_ASSERT(row < rows_ && col < cols_);
    return static_cast<std::size_t>(row) * cols_ + col;
  }
  std::uint64_t cell_id(std::size_t weight_index, std::uint32_t bit) const {
    return cell_base_ + static_cast<std::uint64_t>(weight_index) * bits_ +
           bit;
  }
  /// Weight values must fit the configured precision.
  void validate_range(std::span<const std::uint8_t> golden) const {
    const std::uint32_t limit = 1U << bits_;
    for (const std::uint8_t w : golden) {
      CIM_REQUIRE(w < limit, "weight value exceeds configured precision");
    }
  }

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::uint32_t bits_;
  const noise::SramCellModel* model_;
  std::uint64_t cell_base_;
};

class FastStorage final : public StorageBase {
 public:
  FastStorage(std::uint32_t rows, std::uint32_t cols,
              const noise::SramCellModel* model, std::uint64_t cell_base,
              std::uint32_t weight_bits)
      : StorageBase(rows, cols, model, cell_base, weight_bits) {}

  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_range(golden);
    golden_.resize(weight_count());
    for (std::uint32_t c = 0; c < cols_; ++c) {
      for (std::uint32_t r = 0; r < rows_; ++r) {
        golden_[slot(r, c)] = golden[index(r, c)];
      }
    }
    current_ = golden_;
    apply_stuck_faults();
  }

  std::uint32_t restore(const noise::SchedulePhase& phase,
                        const noise::PhaseSettler* /*settler*/) override {
    CIM_ASSERT_MSG(!golden_.empty(), "write_back before write");
    current_ = golden_;
    ++counters_.writeback_events;
    counters_.writeback_bits += weight_count() * bits_;
    apply_stuck_faults();
    return noisy_bits(phase);
  }

  // The flips are returned to write_back_all(), which charges them.
  // NOLINT(cim-counter-charge)
  std::uint64_t settle_columns(const noise::PhaseSettler& settler,
                               std::uint32_t noisy, std::uint32_t begin,
                               std::uint32_t end) override {
    std::uint64_t flips = 0;
    for (std::uint32_t col = begin; col < end; ++col) {
      for (std::uint32_t r = 0; r < rows_; ++r) {
        // Corrupt on top of the stuck-adjusted value (current_, not
        // golden_): a stuck bit already holds its preferred value, so the
        // settle rule leaves it alone — matching BitLevelStorage bit for
        // bit.
        std::uint8_t& value = current_[slot(r, col)];
        const std::uint8_t settled =
            settler.settle_word(cell_id(index(r, col), 0), value, noisy);
        flips += static_cast<std::uint64_t>(
            std::popcount(static_cast<unsigned>(value ^ settled)));
        value = settled;
      }
    }
    return flips;
  }

  std::int64_t mac(ColIndex col_idx,
                   std::span<const std::uint8_t> input) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    CIM_ASSERT(input.size() == rows_);
    // The column is contiguous: a branchless masked byte sum the compiler
    // vectorises. Blocks of 2^16 rows keep the 32-bit partial sums exact.
    constexpr std::uint32_t kBlock = 1U << 16;
    const std::uint8_t* weights = current_.data() + slot(0, col);
    std::int64_t acc = 0;
    for (std::uint32_t r0 = 0; r0 < rows_; r0 += kBlock) {
      const std::uint32_t r1 = std::min(rows_ - r0, kBlock) + r0;
      std::uint32_t block = 0;
      for (std::uint32_t r = r0; r < r1; ++r) {
        // Spelled as a byte mask, not `input[r] ? w : 0`, which the
        // compiler turns back into a branch.
        const auto mask = static_cast<std::uint8_t>(input[r] != 0 ? 0xFF : 0);
        block += static_cast<std::uint8_t>(weights[r] & mask);
      }
      acc += block;
    }
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return acc;
  }

  std::int64_t mac_sparse(
      ColIndex col_idx,
      std::span<const std::uint32_t> active_rows) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    std::int64_t acc = 0;
    for (const std::uint32_t r : active_rows) {
      acc += current_[slot(r, col)];
    }
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return acc;
  }

  // Test/debug observability peek, not a modelled wordline access — the
  // hardware never reads single weights outside a MAC.
  // NOLINT(cim-counter-charge)
  std::uint8_t weight(RowIndex row, ColIndex col) const override {
    return current_[slot(row.get(), col.get())];
  }

 private:
  /// Position of weight (row, col) in the column-contiguous planes. Cell
  /// ids stay derived from the row-major index(), so the layout does not
  /// move the error pattern.
  std::size_t slot(std::uint32_t row, std::uint32_t col) const {
    CIM_ASSERT(row < rows_ && col < cols_);
    return static_cast<std::size_t>(col) * rows_ + row;
  }

  // Hard manufacturing faults: stuck cells override every write at any
  // supply voltage (soft pseudo-read flips are applied afterwards).
  // Charged by the callers (write/write_back own the writeback counters).
  // NOLINT(cim-counter-charge)
  void apply_stuck_faults() {
    if (!model_ || model_->params().stuck_cell_rate <= 0.0) return;
    for (std::uint32_t c = 0; c < cols_; ++c) {
      for (std::uint32_t r = 0; r < rows_; ++r) {
        const std::size_t w = index(r, c);
        std::uint8_t& value = current_[slot(r, c)];
        for (std::uint32_t b = 0; b < bits_; ++b) {
          const std::uint64_t id = cell_id(w, b);
          if (!model_->is_stuck(id)) continue;
          const bool preferred = model_->traits(id).preferred_bit;
          value = static_cast<std::uint8_t>(
              (value & ~(1U << b)) | (static_cast<unsigned>(preferred) << b));
        }
      }
    }
  }

  /// Golden and current images, column-contiguous: slot(row, col).
  std::vector<std::uint8_t> golden_;
  std::vector<std::uint8_t> current_;
};

class BitLevelStorage final : public StorageBase {
 public:
  BitLevelStorage(std::uint32_t rows, std::uint32_t cols,
                  const noise::SramCellModel* model, std::uint64_t cell_base,
                  std::uint32_t weight_bits, PseudoReadPolicy policy)
      : StorageBase(rows, cols, model, cell_base, weight_bits),
        policy_(policy),
        tree_(rows) {
    const std::size_t n_cells = weight_count() * bits_;
    stored_.assign(n_cells, 0);
    golden_bits_.assign(n_cells, 0);
    touched_.assign(n_cells, 0);
  }

  // Initial golden-image load happens before the annealing run starts;
  // the paper's write-energy accounting begins at the first write_back.
  // NOLINT(cim-counter-charge)
  void write(std::span<const std::uint8_t> golden) override {
    CIM_REQUIRE(golden.size() == weight_count(),
                "weight image size mismatch");
    validate_range(golden);
    for (std::size_t w = 0; w < weight_count(); ++w) {
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint8_t bit = (golden[w] >> b) & 1U;
        golden_bits_[w * bits_ + b] = bit;
        stored_[w * bits_ + b] = bit;
      }
    }
    std::fill(touched_.begin(), touched_.end(), 0);
    apply_stuck_faults();
  }

  std::uint32_t restore(const noise::SchedulePhase& phase,
                        const noise::PhaseSettler* settler) override {
    CIM_ASSERT_MSG(!stored_.empty(), "write_back before write");
    stored_ = golden_bits_;
    std::fill(touched_.begin(), touched_.end(), 0);
    phase_ = phase;
    ++counters_.writeback_events;
    counters_.writeback_bits += stored_.size();
    apply_stuck_faults();
    if (settler == nullptr) return 0;
    if (policy_ == PseudoReadPolicy::kSettleAtWriteBack) {
      return noisy_bits(phase);
    }
    settler_ = *settler;  // kFlipOnAccess settles on access
    return 0;
  }

  // The flips are returned to write_back_all(), which charges them.
  // NOLINT(cim-counter-charge)
  std::uint64_t settle_columns(const noise::PhaseSettler& settler,
                               std::uint32_t noisy, std::uint32_t begin,
                               std::uint32_t end) override {
    std::uint64_t flips = 0;
    for (std::uint32_t r = 0; r < rows_; ++r) {
      for (std::uint32_t col = begin; col < end; ++col) {
        for (std::uint32_t b = 0; b < noisy; ++b) {
          flips += corrupt_cell(settler, index(r, col), b) ? 1 : 0;
        }
      }
    }
    return flips;
  }

  std::int64_t mac(ColIndex col_idx,
                   std::span<const std::uint8_t> input) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    CIM_ASSERT(input.size() == rows_);
    const bool lazy_noise = model_ &&
                            policy_ == PseudoReadPolicy::kFlipOnAccess &&
                            phase_.noisy_lsbs > 0;
    const std::uint32_t noisy =
        lazy_noise ? std::min(phase_.noisy_lsbs, bits_) : 0;

    // Assemble bit-plane NOR products; every access is a pseudo-read of the
    // addressed cells.
    planes_.assign(static_cast<std::size_t>(bits_) * rows_, 0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      const std::size_t w = index(r, col);
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::size_t cell = w * bits_ + b;
        if (b < noisy && !touched_[cell]) {
          if (corrupt_cell(*settler_, w, b)) ++counters_.pseudo_read_flips;
          touched_[cell] = 1;
        }
        // 14T cell multiply: input NOR-combined with the stored bit acts
        // as a 1-bit AND of input and weight-bit (active-low NOR logic).
        planes_[static_cast<std::size_t>(b) * rows_ + r] =
            static_cast<std::uint8_t>(input[r] & stored_[cell]);
      }
    }
    const std::uint64_t value = tree_.shift_and_add(planes_, bits_);
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return static_cast<std::int64_t>(value);
  }

  std::int64_t mac_sparse(
      ColIndex col_idx,
      std::span<const std::uint32_t> active_rows) override {
    const std::uint32_t col = col_idx.get();
    CIM_ASSERT(col < cols_);
    const bool lazy_noise = model_ &&
                            policy_ == PseudoReadPolicy::kFlipOnAccess &&
                            phase_.noisy_lsbs > 0;
    if (lazy_noise) {
      // Every MAC pseudo-reads the whole addressed column: cells of
      // inactive rows corrupt too, in the same row-major order as the
      // dense path.
      const std::uint32_t noisy = std::min(phase_.noisy_lsbs, bits_);
      for (std::uint32_t r = 0; r < rows_; ++r) {
        const std::size_t w = index(r, col);
        for (std::uint32_t b = 0; b < noisy; ++b) {
          const std::size_t cell = w * bits_ + b;
          if (!touched_[cell]) {
            if (corrupt_cell(*settler_, w, b)) ++counters_.pseudo_read_flips;
            touched_[cell] = 1;
          }
        }
      }
    }
    // Per-plane product counts over the set rows only; the tree model
    // still charges the full-fan-in reduction (inactive rows feed zero
    // products, not zero hardware).
    plane_sums_.assign(bits_, 0);
    for (const std::uint32_t r : active_rows) {
      CIM_ASSERT(r < rows_);
      const std::size_t w = index(r, col);
      for (std::uint32_t b = 0; b < bits_; ++b) {
        plane_sums_[b] += stored_[w * bits_ + b];
      }
    }
    const std::uint64_t value = tree_.shift_and_add_sparse(plane_sums_);
    ++counters_.macs;
    counters_.mac_bit_reads += static_cast<std::uint64_t>(rows_) * bits_;
    return static_cast<std::int64_t>(value);
  }

  // Test/debug observability peek, not a modelled wordline access.
  // NOLINT(cim-counter-charge)
  std::uint8_t weight(RowIndex row, ColIndex col) const override {
    const std::size_t w = index(row.get(), col.get());
    std::uint8_t value = 0;
    for (std::uint32_t b = 0; b < bits_; ++b) {
      value = static_cast<std::uint8_t>(value | (stored_[w * bits_ + b] << b));
    }
    return value;
  }

  const AdderTree& adder_tree() const { return tree_; }

 private:
  // Charged by the callers (write/write_back own the writeback counters).
  // NOLINT(cim-counter-charge)
  void apply_stuck_faults() {
    if (!model_ || model_->params().stuck_cell_rate <= 0.0) return;
    for (std::size_t w = 0; w < weight_count(); ++w) {
      for (std::uint32_t b = 0; b < bits_; ++b) {
        const std::uint64_t id = cell_id(w, b);
        if (!model_->is_stuck(id)) continue;
        stored_[w * bits_ + b] =
            model_->traits(id).preferred_bit ? 1 : 0;
      }
    }
  }

  /// Settles one cell; returns whether it flipped. The callers charge
  /// the flip.
  // NOLINT(cim-counter-charge)
  bool corrupt_cell(const noise::PhaseSettler& settler, std::size_t w,
                    std::uint32_t b) {
    const std::size_t cell = w * bits_ + b;
    const bool bit = stored_[cell] != 0;
    const bool settled = settler.settle(cell_id(w, b), bit);
    if (settled == bit) return false;
    stored_[cell] = settled ? 1 : 0;
    return true;
  }

  PseudoReadPolicy policy_;
  AdderTree tree_;
  noise::SchedulePhase phase_;
  /// The settle rule of phase_ under kFlipOnAccess; set by every noisy
  /// write-back.
  std::optional<noise::PhaseSettler> settler_;
  std::vector<std::uint8_t> stored_;
  std::vector<std::uint8_t> golden_bits_;
  std::vector<std::uint8_t> touched_;
  std::vector<std::uint8_t> planes_;
  std::vector<std::uint32_t> plane_sums_;
};

/// One column range of one storage in the settle chunk table.
struct SettlePiece {
  std::size_t storage = 0;  ///< index into the batch
  std::uint32_t noisy = 0;  ///< noisy low bits per weight to settle
  std::uint32_t begin = 0;  ///< first column
  std::uint32_t end = 0;    ///< one past the last column
};

}  // namespace

void WeightStorage::write_back(const noise::SchedulePhase& phase) {
  WeightStorage* const self = this;
  write_back_all(std::span<WeightStorage* const>(&self, 1), phase);
}

void write_back_all(std::span<WeightStorage* const> storages,
                    const noise::SchedulePhase& phase,
                    util::ThreadPool* pool) {
  const noise::SramCellModel* model = nullptr;
  for (const WeightStorage* storage : storages) {
    const noise::SramCellModel* m = storage->cell_model();
    CIM_REQUIRE(m == nullptr || model == nullptr || m == model,
                "a batched write-back needs one shared cell model");
    if (m != nullptr) model = m;
  }
  // One settle table for the whole batch.
  std::optional<noise::PhaseSettler> settler;
  if (model != nullptr && phase.noisy_lsbs > 0) {
    settler.emplace(*model, phase.epoch, phase.vdd);
  }

  // Restore every storage on the caller, then lay its settles out in
  // chunks of about 2^16: a storage above that splits by columns, smaller
  // consecutive ones share a chunk. A pure function of the shapes and the
  // noisy bits, never of the pool width, so the fold order below is the
  // same on any pool (DESIGN.md §11).
  constexpr std::size_t kSettlesPerChunk = std::size_t{1} << 16;
  std::vector<SettlePiece> pieces;
  std::vector<std::size_t> chunk_first;  // first piece of each chunk
  std::size_t open_settles = kSettlesPerChunk;  // no chunk open yet
  for (std::size_t s = 0; s < storages.size(); ++s) {
    WeightStorage& storage = *storages[s];
    const std::uint32_t noisy =
        storage.restore(phase, settler ? &*settler : nullptr);
    if (noisy == 0) continue;
    const std::size_t per_column =
        static_cast<std::size_t>(storage.rows()) * noisy;
    const std::size_t settles = per_column * storage.cols();
    if (settles > kSettlesPerChunk) {
      const auto grain = static_cast<std::uint32_t>(
          std::max<std::size_t>(1, kSettlesPerChunk / per_column));
      for (std::uint32_t c = 0; c < storage.cols(); c += grain) {
        chunk_first.push_back(pieces.size());
        pieces.push_back(
            {s, noisy, c, std::min(storage.cols() - c, grain) + c});
      }
      open_settles = kSettlesPerChunk;
      continue;
    }
    if (open_settles + settles > kSettlesPerChunk) {
      chunk_first.push_back(pieces.size());
      open_settles = 0;
    }
    pieces.push_back({s, noisy, 0, storage.cols()});
    open_settles += settles;
  }
  chunk_first.push_back(pieces.size());

  // Each chunk writes only its pieces' columns and flip tallies; nothing
  // in it allocates, so worker malloc arenas stay as they are.
  std::vector<std::uint64_t> flips(pieces.size(), 0);
  const auto settle_chunk = [&](std::size_t chunk) {
    for (std::size_t i = chunk_first[chunk]; i < chunk_first[chunk + 1]; ++i) {
      const SettlePiece& piece = pieces[i];
      flips[i] = storages[piece.storage]->settle_columns(
          *settler, piece.noisy, piece.begin, piece.end);
    }
  };
  const std::size_t chunks = chunk_first.size() - 1;
  if (pool != nullptr) {
    util::parallel_for(*pool, chunks, 1, settle_chunk);
  } else {
    // This overload creates the shared pool only for a multi-chunk job:
    // a lone small window never starts a thread.
    util::parallel_for(chunks, 1, settle_chunk);
  }
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    storages[pieces[i].storage]->counters_.pseudo_read_flips += flips[i];
  }
}

std::unique_ptr<WeightStorage> make_fast_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits) {
  return std::make_unique<FastStorage>(rows, cols, model, cell_base,
                                       weight_bits);
}

std::unique_ptr<WeightStorage> make_bit_level_storage(
    std::uint32_t rows, std::uint32_t cols,
    const noise::SramCellModel* model, std::uint64_t cell_base,
    std::uint32_t weight_bits, PseudoReadPolicy policy) {
  return std::make_unique<BitLevelStorage>(rows, cols, model, cell_base,
                                           weight_bits, policy);
}

}  // namespace cim::hw
