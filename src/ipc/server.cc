#include "ipc/server.h"

#include <sys/socket.h>

#include <chrono>
#include <thread>

#include "ipc/message.h"
#include "ipc/shm_ring.h"
#include "obs/span.h"
#include "util/clock.h"
#include "util/logging.h"

namespace potluck {

namespace {

/** Removes a client fd from the active set when a handler exits and
 * wakes the drain wait in shutdown(). */
class ConnectionGuard
{
  public:
    ConnectionGuard(std::mutex &mutex, std::condition_variable &cv,
                    std::set<int> &fds, obs::Gauge *gauge, int fd)
        : mutex_(mutex), cv_(cv), fds_(fds), gauge_(gauge), fd_(fd)
    {
    }

    ~ConnectionGuard()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            fds_.erase(fd_);
            gauge_->add(-1);
        }
        // notify_all outside the lock: shutdown() re-checks the
        // predicate under conns_mutex_, so there is no lost wakeup,
        // and the waiter does not immediately block on the mutex we
        // still hold.
        cv_.notify_all();
    }

  private:
    std::mutex &mutex_;
    std::condition_variable &cv_;
    std::set<int> &fds_;
    obs::Gauge *gauge_;
    int fd_;
};

} // namespace

PotluckServer::PotluckServer(PotluckService &service,
                             const std::string &socket_path)
    : listener_(service, /*threads=*/2), recorder_(service.recorder()),
      socket_path_(socket_path),
      listen_socket_(listenUnix(socket_path)),
      send_deadline_ms_(service.config().ipc_send_deadline_ms),
      idle_timeout_ms_(service.config().ipc_idle_timeout_ms),
      drain_deadline_ms_(service.config().ipc_drain_deadline_ms),
      shm_enabled_(service.config().ipc_enable_shm),
      shm_ring_bytes_(service.config().ipc_shm_ring_bytes)
{
    obs::MetricsRegistry &reg = service.metrics();
    requests_ = &reg.counter("ipc.requests");
    bad_frames_ = &reg.counter("ipc.bad_frame");
    connections_total_ = &reg.counter("ipc.connections");
    accept_errors_ = &reg.counter("ipc.accept_error");
    idle_timeouts_ = &reg.counter("ipc.idle_timeout");
    deadline_exceeded_ = &reg.counter("ipc.deadline_exceeded");
    shm_connections_ = &reg.counter("ipc.shm_connections");
    shm_refused_ = &reg.counter("ipc.shm_refused");
    active_connections_ = &reg.gauge("ipc.active_connections");
    request_bytes_ = &reg.histogram("ipc.request_bytes");
    reply_bytes_ = &reg.histogram("ipc.reply_bytes");
    if (service.config().enable_tracing)
        handle_ns_ = &reg.histogram("ipc.handle_ns");
    accept_thread_ = std::thread([this]() { acceptLoop(); });
}

PotluckServer::~PotluckServer()
{
    shutdown();
}

void
PotluckServer::shutdown()
{
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shutdown_done_)
        return;
    shutdown_done_ = true;

    // 1. Stop accepting. Closing the listening socket unblocks
    // accept() with an error; we also shut it down for portability.
    stopping_ = true;
    ::shutdown(listen_socket_.fd(), SHUT_RDWR);
    listen_socket_.close();
    if (accept_thread_.joinable())
        accept_thread_.join();

    // 2. Drain: half-close every client connection (SHUT_RD). The
    // handler finishes its in-flight request, sends the reply — the
    // write side is still open — then sees EOF and exits.
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (int fd : active_fds_)
            ::shutdown(fd, SHUT_RD);
    }
    {
        // Wait (bounded by the drain deadline) for the handlers to
        // finish their in-flight requests; ConnectionGuard signals
        // conns_cv_ as each one exits. No sleep-polling: the wait ends
        // the moment the last handler leaves or the deadline fires.
        std::unique_lock<std::mutex> lock(conns_mutex_);
        conns_cv_.wait_for(lock,
                           std::chrono::milliseconds(drain_deadline_ms_),
                           [this]() { return active_fds_.empty(); });
    }

    // 3. Sever stragglers past the drain deadline.
    {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (int fd : active_fds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    std::lock_guard<std::mutex> lock(threads_mutex_);
    for (auto &t : client_threads_)
        if (t.joinable())
            t.join();
}

uint64_t
PotluckServer::badFrames() const
{
    return bad_frames_->value();
}

uint64_t
PotluckServer::acceptErrors() const
{
    return accept_errors_->value();
}

size_t
PotluckServer::activeConnections() const
{
    std::lock_guard<std::mutex> lock(conns_mutex_);
    return active_fds_.size();
}

void
PotluckServer::acceptLoop()
{
    while (!stopping_) {
        FrameSocket client;
        try {
            client = listen_socket_.accept();
        } catch (const TransportError &e) {
            if (stopping_)
                return;
            if (e.code() == TransportErrc::ConnectionClosed) {
                // The listening socket itself is gone outside an
                // orderly shutdown; nothing left to accept on.
                POTLUCK_WARN("listening socket failed: " << e.what());
                return;
            }
            // Transient (ECONNABORTED, fd/memory exhaustion): count,
            // back off briefly, keep accepting. One bad moment must
            // not take the daemon's front door down forever.
            accept_errors_->inc();
            POTLUCK_WARN("transient accept failure (retrying): "
                         << e.what());
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
            continue;
        } catch (const FatalError &) {
            // Socket closed during shutdown (or transient error).
            if (stopping_)
                return;
            continue;
        }
        ++connections_;
        connections_total_->inc();
        try {
            client.setDeadlines(send_deadline_ms_, idle_timeout_ms_);
        } catch (const FatalError &) {
            continue; // connection died between accept and fcntl
        }
        int fd = client.fd();
        {
            std::lock_guard<std::mutex> lock(conns_mutex_);
            active_fds_.insert(fd);
            active_connections_->add(1);
        }
        std::lock_guard<std::mutex> lock(threads_mutex_);
        client_threads_.emplace_back(
            [this, c = std::move(client)]() mutable {
                serveClient(std::move(c));
            });
    }
}

void
PotluckServer::serveClient(FrameSocket client)
{
    // A misbehaving client (disconnect mid-frame, oversized length
    // prefix, bytes that don't decode) must cost exactly its own
    // connection: count it, log it, close this socket, keep serving
    // everyone else. Nothing may escape into the std::thread trampoline
    // (that would std::terminate the whole daemon).
    ConnectionGuard guard(conns_mutex_, conns_cv_, active_fds_,
                          active_connections_, client.fd());
    try {
        // The first frame picks the transport: an shm hello upgrades
        // the connection (or is nacked and the same socket carries
        // on), anything else is the first request over plain UDS.
        std::unique_ptr<Transport> transport;
        std::vector<uint8_t> first;
        bool have_first = false;
        try {
            if (!client.recvFrame(first))
                return; // orderly disconnect (or drained shutdown)
        } catch (const TransportError &e) {
            if (e.code() == TransportErrc::Timeout) {
                idle_timeouts_->inc();
                return;
            }
            bad_frames_->inc();
            if (!stopping_)
                POTLUCK_WARN("client connection error: " << e.what());
            return;
        } catch (const std::exception &e) {
            bad_frames_->inc();
            if (!stopping_)
                POTLUCK_WARN("client connection error: " << e.what());
            return;
        }
        if (shm::isHello(first)) {
            bool upgraded = false;
            try {
                transport =
                    shm::acceptUpgrade(std::move(client), first,
                                       shm_enabled_, shm_ring_bytes_,
                                       &upgraded);
            } catch (const std::exception &e) {
                bad_frames_->inc();
                if (!stopping_)
                    POTLUCK_WARN("shm handshake failed: " << e.what());
                return;
            }
            (upgraded ? shm_connections_ : shm_refused_)->inc();
        } else {
            transport = std::make_unique<FrameSocket>(std::move(client));
            have_first = true;
        }
        try {
            transport->setDeadlines(send_deadline_ms_, idle_timeout_ms_);
        } catch (const FatalError &) {
            return; // connection died under the setsockopt
        }

        FrameView frame;
        // Scratch request reused across frames: decodeRequestInto
        // recycles the string/vector capacity, so a steady stream of
        // same-shaped batches decodes allocation-free.
        Request request;
        for (;;) { // the drain path exits via EOF after SHUT_RD
            if (have_first) {
                frame.ownedBuffer() = std::move(first);
                have_first = false;
            } else {
                try {
                    // Borrowed where the transport allows (shm ring):
                    // the request decodes straight out of the ring
                    // slot, no per-frame receive buffer.
                    if (!transport->recvFrameView(frame))
                        return; // orderly disconnect or drain
                } catch (const TransportError &e) {
                    if (e.code() == TransportErrc::Timeout) {
                        // Idle timeout: reap the silent connection.
                        idle_timeouts_->inc();
                        return;
                    }
                    // Disconnect mid-frame, oversized length prefix,
                    // or a poisoned ring.
                    bad_frames_->inc();
                    if (!stopping_)
                        POTLUCK_WARN("client connection error: "
                                     << e.what());
                    return;
                } catch (const std::exception &e) {
                    bad_frames_->inc();
                    if (!stopping_)
                        POTLUCK_WARN("client connection error: "
                                     << e.what());
                    return;
                }
            }

            try {
                decodeRequestInto(request, frame.data(), frame.size());
            } catch (const std::exception &e) {
                bad_frames_->inc();
                if (!stopping_)
                    POTLUCK_WARN("malformed request frame ("
                                 << frame.size() << " bytes): " << e.what());
                return;
            }
            request_bytes_->record(frame.size());
            requests_->inc();

            // Client-side records piggybacked onto the request land in
            // the shared recorder, so one dump shows both halves of a
            // trace. They passed the client's own sampling already.
            if (recorder_) {
                for (const obs::TraceRecord &record : request.uploaded)
                    recorder_->publish(record);
            }

            Reply reply;
            {
                // Adopt the client's trace context (when present) so
                // the handler + service spans join the client's trace.
                // Data-path verbs only: control verbs are not worth a
                // trace slot each.
                bool traced = request.type == RequestType::Lookup ||
                              request.type == RequestType::Put ||
                              request.type == RequestType::LookupBatch ||
                              request.type == RequestType::PutBatch ||
                              request.type == RequestType::PeerLookup ||
                              request.type == RequestType::PeerPut;
                obs::TraceScope trace_scope(traced ? recorder_ : nullptr,
                                            "ipc.handle", request.trace,
                                            obs::kProcService);
                POTLUCK_SPAN(handle_ns_);
                // handle() never throws; service errors ride in
                // Reply::error.
                reply = listener_.handle(request);
            }
            size_t out_len = replyWireSize(reply);
            reply_bytes_->record(out_len);
            try {
                // Marshal the reply in place — into the shm ring, or
                // one exact-size buffer for UDS. Values (shared_ptrs
                // into cache storage) are copied exactly once, here.
                transport->sendFrameDirect(out_len, [&reply](uint8_t *dst) {
                    encodeReplyTo(reply, dst);
                });
            } catch (const TransportError &e) {
                if (e.code() == TransportErrc::Timeout)
                    deadline_exceeded_->inc();
                if (!stopping_)
                    POTLUCK_WARN("client send failed: " << e.what());
                return;
            } catch (const std::exception &e) {
                if (!stopping_)
                    POTLUCK_WARN("client send failed: " << e.what());
                return;
            }
        }
    } catch (...) {
        // Last-ditch: drop the connection rather than the daemon.
        bad_frames_->inc();
        if (!stopping_)
            POTLUCK_WARN("unexpected error in client handler; closing "
                         "connection");
    }
}

} // namespace potluck
