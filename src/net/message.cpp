#include "net/message.hpp"

#include <atomic>
#include <cstring>
#include <new>

#include "support/error.hpp"

namespace caf2::net {

static_assert(sizeof(MessageHeader) <= 64,
              "MessageHeader should stay within one cache line");

// Size cliff, measured on ring4k (4096 images; resident fiber stack pages
// counted with mincore at stack release): 8 more bytes here took each fiber
// from 1.08 to 2.00 resident stack pages, +15.5 MB of peak RSS (254.5 ->
// 270.0 MB). The same 8 bytes would also push Network::send's stage closure
// past InlineFn::kInlineBytes (see network.cpp).
static_assert(sizeof(Message) <= 56,
              "Message grew past 56 B: ring4k fiber stacks and the staged "
              "send closure cross their measured size cliffs");

struct SharedBytes::Block {
  std::atomic<std::size_t> refs;
  std::size_t size;

  std::uint8_t* bytes() { return reinterpret_cast<std::uint8_t*>(this + 1); }
};

SharedBytes SharedBytes::copy_of(const void* data, std::size_t size) {
  SharedBytes out;
  if (size == 0) {
    return out;
  }
  void* raw = ::operator new(sizeof(Block) + size);
  out.block_ = ::new (raw) Block{{1}, size};
  std::memcpy(out.block_->bytes(), data, size);
  return out;
}

SharedBytes::SharedBytes(const SharedBytes& other) noexcept
    : block_(other.block_) {
  if (block_ != nullptr) {
    block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

SharedBytes& SharedBytes::operator=(const SharedBytes& other) noexcept {
  SharedBytes copy(other);
  return *this = std::move(copy);
}

SharedBytes& SharedBytes::operator=(SharedBytes&& other) noexcept {
  if (this != &other) {
    release();
    block_ = other.block_;
    other.block_ = nullptr;
  }
  return *this;
}

void SharedBytes::release() noexcept {
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(block_);
  }
}

const std::uint8_t* SharedBytes::data() const {
  return block_ == nullptr ? nullptr : block_->bytes();
}

std::size_t SharedBytes::size() const {
  return block_ == nullptr ? 0 : block_->size;
}

std::uint8_t* SharedBytes::mutable_data() {
  if (block_ == nullptr) {
    return nullptr;
  }
  CAF2_ASSERT(block_->refs.load(std::memory_order_acquire) == 1,
              "SharedBytes: writing a buffer that is already shared");
  return block_->bytes();
}

}  // namespace caf2::net
