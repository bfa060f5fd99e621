/**
 * @file
 * Socket-listener and thread plumbing under serve::Frontend.
 *
 * The one connection frontend (frontend.h) serves the single daemon
 * and the shard-mode router alike. It accepts connections through
 * this file and runs both its connection threads and its request
 * threads in a ThreadSet:
 *
 *  - bindUnix/bindTcp create ready-to-accept listening sockets
 *    (bindTcp sets SO_REUSEADDR so an immediate rebind after a
 *    restart does not flake on TIME_WAIT);
 *  - ThreadSet runs one thread per connection or per request and
 *    joins each one soon after it finishes, so a long-lived listener
 *    or connection holds thread stacks only for work still in flight,
 *    not for everything it ever served;
 *  - AcceptLoop owns the stop handshake: run() accepts until
 *    requestStop() closes the descriptor out from under it, then
 *    joins every connection thread before returning.
 */

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace msc {
namespace serve {

/** Binds and listens on a Unix socket at @p path (replacing any stale
 *  socket file from a crash). Returns the listening fd, or -1 with a
 *  diagnostic on stderr (@p who names the program in diagnostics). */
int bindUnix(const std::string &path, const char *who);

/** Binds and listens on 127.0.0.1:@p port with SO_REUSEADDR.
 *  Returns the listening fd, or -1 with a diagnostic on stderr. */
int bindTcp(uint16_t port, const char *who);

/**
 * Threads that are joined as they finish rather than when their owner
 * stops. A finished thread files itself as done and the next spawn()
 * joins it, so the set holds the threads still running plus at most
 * those that finished since the last spawn. The destructor waits for
 * and joins every thread.
 */
class ThreadSet
{
  public:
    ThreadSet() = default;
    ~ThreadSet() { joinAll(); }

    ThreadSet(const ThreadSet &) = delete;
    ThreadSet &operator=(const ThreadSet &) = delete;

    /** Joins the threads that have finished, then runs @p fn on a new
     *  thread. */
    void spawn(std::function<void()> fn);

    /** Waits for every running thread to finish and joins them all. */
    void joinAll();

  private:
    std::mutex _mu;
    std::condition_variable _idle;
    std::list<std::thread> _running;
    std::vector<std::thread> _done;
};

/**
 * The accept-until-stopped loop. One instance serves one listener at
 * a time; requestStop() may race run() from a signal handler.
 */
class AcceptLoop
{
  public:
    /** Accepts on @p listen_fd until requestStop(), invoking
     *  @p handler(connected_fd) on a dedicated thread per connection
     *  (the handler owns and must close the fd). Joins all connection
     *  threads, then returns 0. Takes ownership of @p listen_fd. */
    int run(int listen_fd,
            const std::function<void(int fd)> &handler);

    /** Stops the accept loop (async-signal-safe: flags + closes the
     *  listening descriptor). In-flight connections finish. */
    void requestStop();

    bool stopping() const { return _stop.load(); }

  private:
    std::atomic<int> _listenFd{-1};
    std::atomic<bool> _stop{false};
};

} // namespace serve
} // namespace msc
