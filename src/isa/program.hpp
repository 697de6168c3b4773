// A loadable test program: code image + initial data blobs + entry point.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/memory.hpp"

namespace sfi::isa {

struct Program {
  u64 entry = 0x1000;
  u64 code_base = 0x1000;
  std::vector<u32> code;  ///< little-endian instruction words

  struct DataBlob {
    u64 addr = 0;
    std::vector<u8> bytes;
  };
  std::vector<DataBlob> data;

  /// Write code and data images into memory.
  void load_into(Memory& mem) const {
    for (std::size_t i = 0; i < code.size(); ++i) {
      mem.store_u32(code_base + i * 4, code[i]);
    }
    for (const DataBlob& blob : data) {
      mem.write_block(blob.addr, blob.bytes);
    }
  }
};

}  // namespace sfi::isa
