/**
 * @file
 * Staged pipeline Session: the paper's five-stage evaluation pipeline
 * as explicit artifact-producing calls with content-addressed reuse.
 *
 *   transform() -> TransformedProgram   (IV hoist, unroll, layout)
 *   profile()   -> ProfileArtifact      (1M-inst training run)
 *   select()    -> PartitionArtifact    (task selection + verify)
 *   trace()     -> TaskTrace            (functional trace, cut)
 *   simulate()  -> SimArtifact          (Multiscalar timing model)
 *
 * A Session owns one input ir::Program. Each stage call takes the
 * full StageOptions bundle, derives its artifact key from the printed
 * input-program bytes plus exactly the option fields that stage reads
 * (docs/API.md), pulls its upstream artifact through the same cache,
 * and memoizes the result. Artifacts are immutable and shared_ptr
 * owned; callers may hold them beyond the Session's lifetime.
 *
 * Consequences worth designing sweeps around:
 *  - arch::SimConfig does NOT invalidate the trace: an N-config
 *    hardware sweep over one strategy runs the frontend once and
 *    fans out N timing simulations;
 *  - strategy changes invalidate selection and trace but reuse the
 *    transform and profile artifacts — and the functional trace
 *    itself: the profile run records it, and every partition's
 *    TaskTrace cuts ranges of that one stream;
 *  - with a cache directory (SessionConfig::cacheDir) the frontend
 *    artifacts persist across processes.
 *
 * Thread-safety: all stage calls are safe to invoke concurrently;
 * a given artifact is computed exactly once per Session (and the
 * counters below make that assertable in tests).
 */

#pragma once

#include <memory>
#include <string>

#include "pipeline/artifacts.h"
#include "pipeline/cache.h"
#include "pipeline/diskcache.h"
#include "pipeline/options.h"

namespace msc {
namespace pipeline {

/** Session-wide configuration. */
struct SessionConfig
{
    /** On-disk artifact cache directory; empty = in-memory only.
     *  The conventional name `.msc-cache/` is gitignored. */
    std::string cacheDir;
};

/** Indices into CacheStats::stage. */
enum class StageKind : uint8_t
{
    Transform,
    Profile,
    Select,
    Trace,
    Simulate,
    NUM_STAGES
};

constexpr size_t NUM_STAGES = size_t(StageKind::NUM_STAGES);

/** Short stable label for @p s ("transform", "profile", ...). */
const char *stageName(StageKind s);

/** Snapshot of a Session's (or pool's) cache traffic. */
struct CacheStats
{
    StageCounters stage[NUM_STAGES];

    const StageCounters &
    operator[](StageKind s) const
    {
        return stage[size_t(s)];
    }

    uint64_t hits() const;
    uint64_t computed() const;
    uint64_t diskHits() const;

    /** Aggregates @p o into this (SessionPool totals). */
    void add(const CacheStats &o);

    /** "N computed, M hits, K from disk" summary line. */
    std::string summary() const;
};

class Session
{
  public:
    /** Copies @p input. @p cfg.cacheDir opts into the disk cache. */
    explicit Session(const ir::Program &input, SessionConfig cfg = {});

    /** Shares @p input (must not be mutated afterwards). */
    explicit Session(std::shared_ptr<const ir::Program> input,
                     SessionConfig cfg = {});

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    const ir::Program &input() const { return *_input; }

    /** Content hash of the printed input-program bytes (the root of
     *  every artifact key). */
    uint64_t inputKey() const { return _inputKey; }

    /**
     * The content-addressed key stage @p s would use for @p o —
     * computed without touching the cache. Exposed so higher layers
     * can coalesce on exactly the identity the artifact cache uses
     * (the mscd dispatcher dedups in-flight requests on the
     * Simulate-stage key; serve/dispatch.h).
     */
    uint64_t stageKey(StageKind s, const StageOptions &o) const;

    /// @name Stage calls. Each consults the cache first; on a miss it
    /// computes (or loads from disk) and publishes the artifact.
    /// Failures throw runtime::StageError (a std::runtime_error) with
    /// the producing stage annotated; a binding StageOptions::budget
    /// or a tripped StageOptions::cancel throws the matching budget
    /// kind and leaves no partial artifact — the poisoned cache slot
    /// is dropped, so a later call with a bigger budget recomputes.
    /// @{
    std::shared_ptr<const TransformedProgram>
    transform(const StageOptions &o);

    std::shared_ptr<const ProfileArtifact>
    profile(const StageOptions &o);

    std::shared_ptr<const PartitionArtifact>
    select(const StageOptions &o);

    std::shared_ptr<const TaskTrace> trace(const StageOptions &o);

    std::shared_ptr<const SimArtifact> simulate(const StageOptions &o);
    /// @}

    /** Runs all five stages and returns every artifact. */
    StageResults runAll(const StageOptions &o);

    CacheStats cacheStats() const;

  private:
    uint64_t transformKey(const StageOptions &o) const;
    uint64_t profileKey(const StageOptions &o) const;
    uint64_t selectKey(const StageOptions &o) const;
    uint64_t traceKey(const StageOptions &o) const;
    uint64_t simulateKey(const StageOptions &o) const;

    std::shared_ptr<const SimArtifact>
    computeSimulate(const StageOptions &o, uint64_t key);

    /** Key of the trace of the first traceInsts instructions. */
    uint64_t streamKey(const StageOptions &o) const;

    std::shared_ptr<const ir::Program> _input;
    uint64_t _inputKey = 0;
    DiskCache _disk;

    KeyedCache<TransformedProgram> _transforms;
    KeyedCache<ProfileArtifact> _profiles;
    KeyedCache<PartitionArtifact> _partitions;
    KeyedCache<TaskTrace> _traces;
    KeyedCache<SimArtifact> _sims;

    /** Traces by streamKey, recorded by the profile run or the first
     *  trace stage that finds none; not a stage, not in CacheStats. */
    KeyedCache<profile::Trace> _streams;
    AtomicStageCounters _streamCtr;

    AtomicStageCounters _ctr[NUM_STAGES];
};

} // namespace pipeline
} // namespace msc
