/**
 * @file
 * The single mscd daemon: frames in, frames out, work done locally.
 *
 * One Server owns one Dispatcher (worker pool + shared SessionPool +
 * optional on-disk artifact cache) and serves any number of
 * connections against it — the "millions of users" shape: identical
 * program+option requests coalesce onto one computation through the
 * content-addressed stage keys, whatever connection they arrive on.
 *
 * The connection loop, framing errors, inline `cancel`/`stats`,
 * backpressure, the request-id registry and the telemetry around them
 * are the shared serve::Frontend (frontend.h); a connection is any
 * Transport (`mscd --stdio` wraps stdin/stdout, serveUnix/serveTcp
 * accept sockets, tests script StringTransports). This file is the
 * backend: `run`/`sweep` submit their cells to the worker pool and
 * stream cell frames in input order, then one summary; `trace` runs
 * on its request thread with a Perfetto sink attached. The Dispatcher
 * registers its queue/worker/cache gauges in the frontend's registry
 * under the `mscd.` prefix (docs/OBSERVABILITY.md).
 *
 * Nothing a peer sends can crash the process or leak a worker: cell
 * failures become error records (dispatch.h), protocol failures
 * become error frames, and write failures tear down only their own
 * connection.
 */

#pragma once

#include "serve/dispatch.h"
#include "serve/frontend.h"

namespace msc {
namespace serve {

struct ServerConfig : FrontendConfig
{
    Dispatcher::Config dispatch;
};

/** The single daemon: a Frontend whose backend is the local
 *  Dispatcher (and, for `trace`, the calling request thread). */
class Server final : public Frontend
{
  public:
    explicit Server(ServerConfig cfg);

    Dispatcher &dispatcher() { return _dispatch; }

  private:
    void execute(Call &call) override;
    void runTrace(Call &call);

    // Constructed after the Frontend base: the dispatcher registers
    // callback gauges into metrics(), which must outlive it.
    Dispatcher _dispatch;
};

} // namespace serve
} // namespace msc
