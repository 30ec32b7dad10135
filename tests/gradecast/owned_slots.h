// decode_slots_view copied into owned slots, for tests that compare whole
// slot vectors.
#pragma once

#include <optional>
#include <vector>

#include "gradecast/wire.h"

namespace treeaa::gradecast {

/// The slots `msg` decodes to, or nullopt when decode_slots_view rejects it.
inline std::optional<std::vector<Slot>> decode_owned(std::uint8_t tag,
                                                     ByteView msg,
                                                     std::size_t n) {
  std::vector<SlotView> views(n);
  if (!decode_slots_view(tag, msg, views)) return std::nullopt;
  std::vector<Slot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (views[i].has_value()) {
      slots[i] = Bytes(views[i]->begin(), views[i]->end());
    }
  }
  return slots;
}

}  // namespace treeaa::gradecast
