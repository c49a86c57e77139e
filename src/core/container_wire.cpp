#include "core/container_wire.h"

#include "util/byte_io.h"
#include "util/crc32.h"

namespace deepsz::core::wire {

void put_footer(std::vector<std::uint8_t>& out,
                const std::vector<ContainerEntry>& directory,
                std::uint32_t version) {
  std::vector<std::uint8_t> footer;
  util::put_le<std::uint32_t>(footer,
                              static_cast<std::uint32_t>(directory.size()));
  for (const auto& e : directory) {
    util::put_string(footer, e.name);
    util::put_le<std::int64_t>(footer, e.rows);
    util::put_le<std::int64_t>(footer, e.cols);
    util::put_le<double>(footer, e.eb);
    util::put_string(footer, e.data.codec);
    util::put_le<std::uint64_t>(footer, e.data.offset);
    util::put_le<std::uint64_t>(footer, e.data.length);
    util::put_le<std::uint32_t>(footer, e.data.crc);
    util::put_string(footer, e.index.codec);
    util::put_le<std::uint64_t>(footer, e.index.offset);
    util::put_le<std::uint64_t>(footer, e.index.length);
    util::put_le<std::uint32_t>(footer, e.index.crc);
    util::put_le<std::uint64_t>(footer, e.bias_offset);
    util::put_le<std::uint64_t>(footer, e.bias_count);
    if (version != kVersionDelta) continue;
    util::put_le<std::uint8_t>(footer, static_cast<std::uint8_t>(e.kind));
    util::put_le<std::uint8_t>(footer, static_cast<std::uint8_t>(e.mask_mode));
    util::put_string(footer, e.corr.codec);
    util::put_le<std::uint64_t>(footer, e.corr.offset);
    util::put_le<std::uint64_t>(footer, e.corr.length);
    util::put_le<std::uint32_t>(footer, e.corr.crc);
    util::put_le<std::uint32_t>(footer, e.base_data_crc);
    util::put_le<std::uint32_t>(footer, e.base_index_crc);
    util::put_le<std::uint32_t>(footer, e.base_bias_crc);
    util::put_le<std::uint32_t>(footer, e.recon_data_crc);
    util::put_le<std::uint32_t>(footer, e.recon_index_crc);
  }
  const std::uint32_t footer_crc = util::crc32(footer);
  util::put_bytes(out, footer);
  util::put_le<std::uint32_t>(out, footer_crc);
  util::put_le<std::uint64_t>(out, footer.size());
  util::put_le<std::uint32_t>(out, kFooterMagic);
}

}  // namespace deepsz::core::wire
