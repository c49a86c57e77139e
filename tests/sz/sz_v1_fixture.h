// The committed SZ stream-v1 fixture (tests/fixtures/sz_v1.szs): 4000
// weight-like floats at abs bound 1e-3, store-framed. Nothing encodes v1 any
// more, so every v1 decode test reads these bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

namespace deepsz::sz {

inline std::vector<std::uint8_t> sz_v1_fixture() {
  const std::string path = std::string(DEEPSZ_FIXTURE_DIR) + "/sz_v1.szs";
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing fixture " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace deepsz::sz
