/**
 * @file
 * Shard-mode mscd: the hash-partitioning router front-end.
 *
 * A Router accepts the ordinary mscd protocol — same frames, same
 * verbs, same validation — and executes nothing itself. Each sweep
 * cell is forwarded as a single-cell `run` request to one of N
 * downstream shard daemons, chosen by the cell's content-addressed
 * identity: `Session::stageKey(Simulate, opts) % N`, the exact key
 * the shards' dispatchers dedup on. Identical cells therefore always
 * land on the same shard, so in-flight coalescing and the on-disk
 * artifact caches stay shard-local and hot — the router needs no
 * cache of its own (cf. hierarchical task dispatch in Myrmics, and
 * BDDT-SCC's explicit division of the keyspace across non-shared
 * workers; PAPERS.md).
 *
 * Reassembly: relayed cell frames carry the shard's `run` object
 * verbatim (plus a `shard` provenance field, protocol v3) and are
 * streamed to the client in grid order, so a routed sweep reassembles
 * into a `msc.sweep` document byte-identical to a single daemon's.
 * The summary is synthesized from the relayed statuses through the
 * same exit-code mapping, with `via: "router"` + per-shard cell
 * counts appended and the shards' cache counters aggregated.
 *
 * Failure containment mirrors the single daemon's: a shard that
 * cannot be reached (connect retry with backoff exhausted) or dies
 * mid-sweep fails only the cells assigned to it — each becomes an
 * `io` error record, the sweep completes `partial` with exit code 3,
 * and the other shards' cells are unaffected.
 *
 * Everything a client connection sees besides forwarding — framing
 * errors, backpressure, inline `cancel`/`stats`, the request-id
 * registry, logs and per-verb telemetry — is the same serve::Frontend
 * the single daemon runs (frontend.h), with metrics under the
 * `router.` prefix plus per-shard `router.shard.N.*`
 * (docs/OBSERVABILITY.md). The router's `stats` verb serves its own
 * registry, while each shard's `stats` verb still serves the shard's
 * own. A `cancel` sets the request's token, which stops cells not yet
 * forwarded, and is relayed to the shards holding its pending cells.
 */

#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "client/endpoint.h"
#include "pipeline/pool.h"
#include "serve/frontend.h"

namespace msc {
namespace serve {

struct CellOutcome;

/** Frontend fields apply to the client side; maxInflight has the
 *  ServerConfig semantics, and the budget defaults are propagated
 *  explicitly to shards — a shard's own defaults never leak into
 *  routed cells. Shard links always use the protocol's default
 *  frame cap. */
struct RouterConfig : FrontendConfig
{
    /** Downstream shard daemons, in shard-index order. */
    std::vector<client::Endpoint> shards;

    /** Connect retry policy per shard: up to @p connectAttempts
     *  attempts, sleeping attempt * connectBackoffMs between them.
     *  After a fully failed round, the link fails fast (one attempt
     *  per later cell) until a connect succeeds again. */
    unsigned connectAttempts = 5;
    unsigned connectBackoffMs = 20;
};

/** The shard-mode router: a Frontend whose backend forwards cells to
 *  shard daemons and reassembles their responses. */
class Router final : public Frontend
{
  public:
    explicit Router(RouterConfig cfg);

    /** Joins every shard link's reader thread. */
    ~Router() override;

    size_t shardCount() const { return _links.size(); }

  private:
    class ShardLink;

    void execute(Call &call) override;

    /** Relays the cancel to every shard holding one of @p call's
     *  cells. */
    void cancel(Call &call) override;

    /** Shard index for @p spec: Simulate stageKey % N (budget
     *  excluded — artifacts are budget-independent, so budget
     *  variants of a cell still colocate). Unroutable specs (unknown
     *  workload: there is no program to key) fall back to a stable
     *  name hash; every shard reports the identical error record. */
    unsigned shardOf(const report::RunSpec &spec);

    std::string nextId(char tag);

    /** Hands one cell of @p call to shard @p shard. Relays the cancel
     *  itself when the call was cancelled after the caller checked
     *  the token but before the cell was pending on the link (the
     *  cancel hook could not see it then). */
    std::future<CellOutcome> forwardCell(Call &call, unsigned shard,
                                         const std::string &cell_id,
                                         const std::string &payload);

    void runForward(Call &call);
    void runTraceForward(Call &call);

    RouterConfig _cfg;

    obs::Counter *_cellsForwarded = nullptr;
    obs::Counter *_cellsFailed = nullptr;
    obs::Counter *_cancelsForwarded = nullptr;

    std::atomic<uint64_t> _cellSeq{0};

    /** Key-only pool: Sessions here just build + print the workload
     *  program to derive stage keys; no stage ever *runs* on the
     *  router, and SessionConfig{} means no disk cache. */
    pipeline::SessionPool _keys;

    std::vector<std::unique_ptr<ShardLink>> _links;
};

} // namespace serve
} // namespace msc
