// The paper's sparse fc-layer representation after pruning (Section 3.2):
// two 1-D arrays instead of the three CSR arrays.
//
//   data  — the nonzero float weights (32 bits each), plus 0.0f paddings;
//   index — 8-bit deltas between consecutive nonzero positions.
//
// A real entry advances the cursor by its delta (1..255). When a gap exceeds
// 255, filler entries (index = 255, data = 0.0f) are inserted, exactly as the
// paper describes ("we additionally save a zero padding to data array and 255
// to index array"). Each stored entry therefore costs 40 bits, which is why
// the post-pruning ratio is slightly below 32/(40*keep_ratio).
//
// DeepSZ compresses `data` with SZ (lossy) and `index` losslessly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace deepsz::sparse {

/// Sparse fc-layer in the paper's data/index two-array format.
struct PrunedLayer {
  std::string name;          // e.g. "fc6"
  std::int64_t rows = 0;     // output neurons
  std::int64_t cols = 0;     // input neurons
  std::vector<float> data;   // nonzero weights + 0.0f fillers
  std::vector<std::uint8_t> index;  // position deltas (1..255); 255+0.0 = filler

  /// Number of stored entries (including fillers).
  std::size_t stored_entries() const { return data.size(); }

  /// Dense element count rows*cols.
  std::int64_t dense_count() const { return rows * cols; }

  /// Size of the dense float matrix in bytes.
  std::size_t dense_bytes() const {
    return static_cast<std::size_t>(dense_count()) * sizeof(float);
  }

  /// Size of this representation in bytes: 4 bytes data + 1 byte index per
  /// entry (the paper's "40 bits per nonzero").
  std::size_t csr_bytes() const {
    return data.size() * sizeof(float) + index.size();
  }

  /// Builds the representation from a dense row-major matrix.
  static PrunedLayer from_dense(std::span<const float> dense,
                                std::int64_t rows, std::int64_t cols,
                                std::string name = {});

  /// Reconstructs the dense row-major matrix.
  std::vector<float> to_dense() const;

  /// Returns a copy with `data` replaced (e.g. by SZ-decompressed values);
  /// sizes must match.
  PrunedLayer with_data(std::vector<float> new_data) const;
};

namespace detail {
[[noreturn]] void throw_bad_position(const char* what, std::string_view layer);
}  // namespace detail

/// Walks the paper's position deltas over a rows x cols row-major matrix,
/// calling visit(i, pos, row, col) for stored entry i in order. Positions
/// strictly increase (from_dense emits deltas >= 1), so a zero delta can only
/// come from corruption; it throws std::runtime_error, as does a position
/// past the matrix. The row is tracked incrementally: no division per entry.
template <class Visit>
void for_each_position(std::span<const std::uint8_t> deltas, std::int64_t rows,
                       std::int64_t cols, std::string_view layer,
                       Visit&& visit) {
  if (!deltas.empty() && (rows <= 0 || cols <= 0)) {
    detail::throw_bad_position("index overruns matrix", layer);
  }
  std::int64_t pos = -1, row = 0, col = -1;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const std::uint8_t d = deltas[i];
    if (d == 0) detail::throw_bad_position("zero position delta", layer);
    pos += d;
    col += d;
    if (col >= cols) {
      row += col / cols;
      col %= cols;
      if (row >= rows) {
        detail::throw_bad_position("index overruns matrix", layer);
      }
    }
    visit(i, static_cast<std::size_t>(pos), static_cast<std::size_t>(row),
          static_cast<std::uint32_t>(col));
  }
}

/// Standard 3-array CSR, kept for interoperability and for the comparison
/// tests showing the two-array format's size advantage.
struct CsrMatrix {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<float> values;
  std::vector<std::int32_t> col_indices;
  std::vector<std::int64_t> row_offsets;  // rows+1 entries

  std::size_t bytes() const {
    return values.size() * sizeof(float) +
           col_indices.size() * sizeof(std::int32_t) +
           row_offsets.size() * sizeof(std::int64_t);
  }

  static CsrMatrix from_dense(std::span<const float> dense, std::int64_t rows,
                              std::int64_t cols);
  std::vector<float> to_dense() const;
};

}  // namespace deepsz::sparse
