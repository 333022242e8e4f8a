// Pluggable byte-stream transports for the distributed actor-learner
// topology. A ByteStream is a bidirectional, reliable, ordered byte pipe
// between the learner and one collector; the wire layer (wire.h) frames
// persist-encoded messages over it and never cares which implementation
// carries the bytes:
//
//  - FdStream:       a connected socketpair/pipe fd pair (fork-spawned
//                    collector processes). EINTR-safe, poll-based timeouts.
//  - LoopbackStream: an in-memory queue pair for thread-spawned collectors
//                    and tests (no fork, so it is the TSan-friendly mode).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

namespace miras::dist {

enum class RecvStatus : std::uint8_t {
  kData,     // one or more bytes were received
  kTimeout,  // no data within the timeout; the stream is still open
  kClosed,   // end-of-stream: the peer is gone and no bytes remain
};

struct RecvResult {
  RecvStatus status = RecvStatus::kTimeout;
  std::size_t bytes = 0;
};

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Sends all `size` bytes (blocking until written). Throws
  /// std::runtime_error when the peer is gone.
  virtual void send(const void* data, std::size_t size) = 0;

  /// Receives up to `max` bytes, waiting at most `timeout_ms` (0 = just
  /// poll). Returns kData with bytes > 0, kTimeout, or kClosed.
  virtual RecvResult recv_some(void* data, std::size_t max,
                               int timeout_ms) = 0;
};

/// ByteStream over a connected fd (one end of a socketpair or a pipe pair).
/// Owns and closes the fds. `read_fd` and `write_fd` may be the same fd.
class FdStream final : public ByteStream {
 public:
  FdStream(int read_fd, int write_fd);
  ~FdStream() override;

  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  void send(const void* data, std::size_t size) override;
  RecvResult recv_some(void* data, std::size_t max, int timeout_ms) override;

  /// Closes the fds early (e.g. the parent's copy of a child's end).
  void close_fds();

 private:
  int read_fd_;
  int write_fd_;
};

/// Creates a connected AF_UNIX socketpair and wraps each end. first is
/// conventionally the learner end, second the collector end; after fork,
/// each process close_fds()es (or destroys) the end it does not use.
std::pair<std::unique_ptr<FdStream>, std::unique_ptr<FdStream>>
make_socketpair_streams();

/// In-memory ByteStream pair (A's sends are B's receives and vice versa).
/// Thread-safe; used by thread-spawned collectors and the unit tests.
class LoopbackStream final : public ByteStream {
 public:
  /// Two connected endpoints. Destroying either endpoint closes the
  /// connection for the other (recv reports kClosed once drained, send
  /// throws).
  static std::pair<std::unique_ptr<LoopbackStream>,
                   std::unique_ptr<LoopbackStream>>
  make_pair();

  ~LoopbackStream() override;

  void send(const void* data, std::size_t size) override;
  RecvResult recv_some(void* data, std::size_t max, int timeout_ms) override;

  /// Bytes sent by this endpoint not yet received by the peer — what the
  /// back-pressure tests bound.
  std::size_t peer_unread_bytes() const;

 private:
  struct Channel {
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<std::uint8_t> bytes;
    bool writer_alive = true;
    bool reader_alive = true;
  };

  LoopbackStream(std::shared_ptr<Channel> in, std::shared_ptr<Channel> out);

  std::shared_ptr<Channel> in_;   // peer writes here, we read
  std::shared_ptr<Channel> out_;  // we write here, peer reads
};

}  // namespace miras::dist
