#include "support/serialize.hpp"

namespace caf2 {

void WriteArchive::write_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void ReadArchive::read_bytes(void* out, std::size_t size) {
  CAF2_ASSERT(cursor_ + size <= bytes_.size(),
              "ReadArchive: read past end of buffer");
  if (size > 0) {  // out and the buffer may be null when empty
    std::memcpy(out, bytes_.data() + cursor_, size);
  }
  cursor_ += size;
}

}  // namespace caf2
