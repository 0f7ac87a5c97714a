#include "prep/replay.hh"

#include <algorithm>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::prep
{

ReplayStream::ReplayStream(TraceSource &source_arg,
                           const ReplayConfig &config_arg)
    : source(source_arg), config(config_arg)
{
    source.reset();
    // Plan fixed placements: each area on its own 2 MiB-aligned slab
    // with a guard gap, mirroring the generated template's layout.
    Addr cursor = config.baseVaddr;
    for (const AreaInfo &a : source.layout().areas) {
        const std::uint64_t len = roundUp(a.sizeBytes, pageSize);
        const bool nvm = (a.kind == AreaKind::stack)
                             ? config.stacksInNvm
                             : config.heapsInNvm;
        plan.push_back(PlannedArea{a.areaId, cursor, len, a.sizeBytes, nvm});
        cursor += roundUp(len, 2 * oneMiB) + 2 * oneMiB;
    }
}

const ReplayStream::PlannedArea &
ReplayStream::area(std::uint32_t area_id) const
{
    // A layout has a handful of areas: a scan beats any index.
    const auto it =
        std::find_if(plan.begin(), plan.end(), [&](const PlannedArea &a) {
            return a.id == area_id;
        });
    kindle_assert(it != plan.end(), "unknown area id {}", area_id);
    return *it;
}

Addr
ReplayStream::areaBase(std::uint32_t area_id) const
{
    return area(area_id).base;
}

bool
ReplayStream::next(cpu::Op &op)
{
    switch (phase) {
      case Phase::setup:
        if (setupIdx < plan.size()) {
            op.kind = cpu::Op::Kind::mmap;
            op.addr = plan[setupIdx].base;
            op.size = plan[setupIdx].len;
            op.flags = cpu::mapFixed;
            if (plan[setupIdx].nvm)
                op.flags |= cpu::mapNvm;
            ++setupIdx;
            return true;
        }
        phase = config.wrapInFase ? Phase::faseOpen : Phase::body;
        return next(op);

      case Phase::faseOpen:
        op = cpu::Op{};
        op.kind = cpu::Op::Kind::faseStart;
        phase = Phase::body;
        return true;

      case Phase::body: {
        if (config.computePerRecord > 0 &&
            sinceCompute >= config.computeBatch) {
            sinceCompute = 0;
            op = cpu::Op{};
            op.kind = cpu::Op::Kind::compute;
            op.size = config.computePerRecord * config.computeBatch;
            return true;
        }
        TraceRecord rec;
        if (!source.next(rec)) {
            phase = config.wrapInFase ? Phase::faseClose
                                      : Phase::teardown;
            return next(op);
        }
        ++replayed;
        ++sinceCompute;
        const PlannedArea &target = area(rec.areaId);
        std::uint64_t off = rec.offset;
        if (off + rec.size > target.sizeBytes) {
            off = target.sizeBytes -
                  std::min<std::uint64_t>(rec.size, target.sizeBytes);
        }
        op = cpu::Op{};
        op.kind = rec.op == TraceOp::read ? cpu::Op::Kind::read
                                          : cpu::Op::Kind::write;
        op.addr = target.base + off;
        op.size = rec.size == 0 ? 1 : rec.size;
        return true;
      }

      case Phase::faseClose:
        op = cpu::Op{};
        op.kind = cpu::Op::Kind::faseEnd;
        phase = Phase::teardown;
        return true;

      case Phase::teardown:
        if (teardownIdx < plan.size()) {
            op = cpu::Op{};
            op.kind = cpu::Op::Kind::munmap;
            op.addr = plan[teardownIdx].base;
            op.size = plan[teardownIdx].len;
            ++teardownIdx;
            return true;
        }
        phase = Phase::exit;
        return next(op);

      case Phase::exit:
        op = cpu::Op{};
        op.kind = cpu::Op::Kind::exit;
        phase = Phase::done;
        return true;

      case Phase::done:
        return false;
    }
    return false;
}

} // namespace kindle::prep
