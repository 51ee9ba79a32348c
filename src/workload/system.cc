#include "workload/system.h"

#include "alloc/jade_allocator.h"
#include "baselines/ffmalloc.h"
#include "baselines/markus.h"
#include "core/minesweeper.h"
#include "util/check.h"

namespace msw::workload {

const char*
system_kind_name(SystemKind kind)
{
    switch (kind) {
      case SystemKind::kBaseline:
        return "baseline";
      case SystemKind::kMineSweeper:
        return "minesweeper";
      case SystemKind::kMineSweeperMostly:
        return "minesweeper-mostly";
      case SystemKind::kMarkUs:
        return "markus";
      case SystemKind::kFFMalloc:
        return "ffmalloc";
    }
    return "unknown";
}

namespace {

/** The hooks every quarantine runtime (MineSweeper, MarkUs) provides. */
void
wire_quarantine_runtime(System& sys, core::QuarantineRuntime* raw)
{
    sys.add_root = [raw](const void* base, std::size_t len) {
        raw->add_root(base, len);
    };
    sys.remove_root = [raw](const void* base) { raw->remove_root(base); };
    sys.register_thread = [raw] { raw->register_mutator_thread(); };
    sys.unregister_thread = [raw] { raw->unregister_mutator_thread(); };
    sys.flush = [raw] { raw->flush(); };
}

}  // namespace

System
make_system(SystemKind kind, const core::Options& msw_options)
{
    System sys;
    sys.name = system_kind_name(kind);
    core::RuntimeBase* runtime = nullptr;
    switch (kind) {
      case SystemKind::kBaseline: {
        // The paper's baseline is unmodified jemalloc with its stock
        // 10 s decay purging.
        alloc::JadeAllocator::Options o;
        sys.allocator = std::make_unique<alloc::JadeAllocator>(o);
        break;
      }
      case SystemKind::kMineSweeper:
      case SystemKind::kMineSweeperMostly: {
        core::Options o = msw_options;
        o.mode = kind == SystemKind::kMineSweeperMostly
                     ? core::Mode::kMostlyConcurrent
                     : o.mode;
        auto ms = std::make_unique<core::MineSweeper>(o);
        wire_quarantine_runtime(sys, ms.get());
        runtime = ms.get();
        sys.allocator = std::move(ms);
        break;
      }
      case SystemKind::kMarkUs: {
        auto mu = std::make_unique<baseline::MarkUs>();
        wire_quarantine_runtime(sys, mu.get());
        runtime = mu.get();
        sys.allocator = std::move(mu);
        break;
      }
      case SystemKind::kFFMalloc: {
        auto ff = std::make_unique<baseline::FFMalloc>();
        runtime = ff.get();
        sys.allocator = std::move(ff);
        break;
      }
    }
    MSW_CHECK(sys.allocator != nullptr);
    if (runtime != nullptr)
        sys.counters = [runtime] { return runtime->counters(); };
    return sys;
}

}  // namespace msw::workload
