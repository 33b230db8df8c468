#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "net/topology.hpp"

namespace diva::net {

/// Mailbox/handler channel. Low values are reserved by the library;
/// applications may use any value ≥ kFirstAppChannel.
using Channel = std::uint32_t;
inline constexpr Channel kProtocolChannel = 0;  ///< DIVA data-management traffic
inline constexpr Channel kSyncChannel = 1;      ///< barrier synchronization
inline constexpr Channel kLockChannel = 2;      ///< distributed locks
inline constexpr Channel kFirstAppChannel = 16;

/// Move-only, type-erased message body with an inline buffer, on the
/// pattern of `sim::EventFn`: an ops-table pointer plus `kInlineBytes` of
/// storage sized to the largest library body (the access tree's 64-byte
/// `AtBody`; a whole `Message` is 96 bytes). Every lock, barrier,
/// fixed-home and access-tree body travels inline, so posting one
/// allocates nothing; a larger, over-aligned or throwing-move body falls
/// back to the heap.
///
/// The ops table's address is the type's identity: `get<T>` returns
/// null unless the body holds exactly a `T`.
class MessageBody {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  /// Does a `T` travel in the inline buffer?
  template <typename T>
  static constexpr bool kInline = sizeof(T) <= kInlineBytes &&
                                  alignof(T) <= alignof(std::uint64_t) &&
                                  std::is_nothrow_move_constructible_v<T>;

  MessageBody() noexcept = default;

  template <typename V>
    requires(!std::is_same_v<std::remove_cvref_t<V>, MessageBody>)
  MessageBody(V&& value) {  // NOLINT(google-explicit-constructor): payload wrapper
    using T = std::remove_cvref_t<V>;
    if constexpr (kInline<T>) {
      ::new (static_cast<void*>(buf_)) T(std::forward<V>(value));
    } else {
      ::new (static_cast<void*>(buf_)) T*(new T(std::forward<V>(value)));
    }
    ops_ = &kOps<T>;
  }

  MessageBody(MessageBody&& other) noexcept { moveFrom(other); }

  MessageBody& operator=(MessageBody&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  MessageBody(const MessageBody&) = delete;
  MessageBody& operator=(const MessageBody&) = delete;

  ~MessageBody() { reset(); }

  /// The stored `T`, or null when the body is empty or holds another type.
  template <typename T>
  T* get() noexcept {
    if (ops_ != &kOps<T>) return nullptr;
    if constexpr (kInline<T>) {
      return std::launder(reinterpret_cast<T*>(buf_));
    } else {
      return *std::launder(reinterpret_cast<T**>(buf_));
    }
  }
  template <typename T>
  const T* get() const noexcept {
    return const_cast<MessageBody*>(this)->get<T>();
  }

 private:
  struct Ops {
    /// Move-construct `dst` from `src` and destroy `src`. Null when a
    /// memcpy of the buffer suffices (trivially copyable inline bodies,
    /// and the pointer of a heap body).
    void (*relocate)(void* dst, void* src) noexcept;
    /// Null when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };

  template <typename T>
  static constexpr Ops makeOps() {
    if constexpr (!kInline<T>) {
      return Ops{nullptr, [](void* self) noexcept {
                   delete *std::launder(reinterpret_cast<T**>(self));
                 }};
    } else {
      return Ops{
          std::is_trivially_copyable_v<T>
              ? nullptr
              : +[](void* dst, void* src) noexcept {
                  T* s = std::launder(reinterpret_cast<T*>(src));
                  ::new (dst) T(std::move(*s));
                  s->~T();
                },
          std::is_trivially_destructible_v<T>
              ? nullptr
              : +[](void* self) noexcept { std::launder(reinterpret_cast<T*>(self))->~T(); },
      };
    }
  }

  template <typename T>
  static constexpr Ops kOps = makeOps<T>();

  void moveFrom(MessageBody& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, other.buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  alignas(std::uint64_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// A simulated network message. `body` carries the model-level payload
/// (moved, never copied; large data rides a shared pointer inside it);
/// `payloadBytes` is the *simulated* wire size that drives bandwidth and
/// congestion accounting — the two are deliberately decoupled so a 16 KB
/// matrix block costs 16 KB on the wire while being a shared_ptr in host
/// memory.
struct Message {
  NodeId src = -1;
  NodeId dst = -1;
  Channel channel = kProtocolChannel;
  std::uint64_t payloadBytes = 0;
  MessageBody body;

  template <typename T>
  const T& as() const {
    const T* p = body.get<T>();
    DIVA_CHECK_MSG(p != nullptr, "message body type mismatch");
    return *p;
  }

  template <typename T>
  T take() {
    T* p = body.get<T>();
    DIVA_CHECK_MSG(p != nullptr, "message body type mismatch");
    return std::move(*p);
  }
};

}  // namespace diva::net
