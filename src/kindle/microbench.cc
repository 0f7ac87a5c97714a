#include "kindle/microbench.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::micro
{

namespace
{

cpu::Op
makeOp(cpu::Op::Kind kind, Addr addr = 0, std::uint64_t size = 0,
       std::uint32_t flags = 0)
{
    cpu::Op op;
    op.kind = kind;
    op.addr = addr;
    op.size = size;
    op.flags = flags;
    return op;
}

} // namespace

ScriptBuilder &
ScriptBuilder::append(const cpu::Op &op, std::uint64_t count, Addr stride)
{
    if (count == 0)
        return *this;
    if (!runs.empty()) {
        ScriptStream::Run &open = runs.back();
        // A one-Op run has no stride yet: what follows it fixes one.
        const Addr step = open.count > 1 ? open.stride
                          : count > 1    ? stride
                                         : op.addr - open.op.addr;
        if (op.kind == open.op.kind && op.size == open.op.size &&
            op.flags == open.op.flags && (count == 1 || stride == step) &&
            op.addr == open.op.addr + open.count * step) {
            open.count += count;
            open.stride = step;
            return *this;
        }
    }
    runs.push_back({op, count, count > 1 ? stride : 0});
    return *this;
}

ScriptBuilder &
ScriptBuilder::mmapFixed(Addr addr, std::uint64_t size, bool nvm)
{
    return append(makeOp(cpu::Op::Kind::mmap, addr, size,
                         cpu::mapFixed | (nvm ? cpu::mapNvm : 0u)));
}

ScriptBuilder &
ScriptBuilder::munmap(Addr addr, std::uint64_t size)
{
    return append(makeOp(cpu::Op::Kind::munmap, addr, size));
}

ScriptBuilder &
ScriptBuilder::mremap(Addr addr, std::uint64_t old_size,
                      std::uint64_t new_size)
{
    // The kernel's dispatch interprets flags as the new size in pages
    // for mremap ops (Op has only one spare field wide enough).
    return append(makeOp(cpu::Op::Kind::mremap, addr, old_size,
                         static_cast<std::uint32_t>(new_size >> pageShift)));
}

ScriptBuilder &
ScriptBuilder::mprotect(Addr addr, std::uint64_t size,
                        std::uint32_t prot)
{
    return append(makeOp(cpu::Op::Kind::mprotect, addr, size, prot));
}

ScriptBuilder &
ScriptBuilder::touchPages(Addr addr, std::uint64_t size)
{
    return append(makeOp(cpu::Op::Kind::write, addr, 8),
                  divCeil(size, pageSize), pageSize);
}

ScriptBuilder &
ScriptBuilder::readPages(Addr addr, std::uint64_t size)
{
    return append(makeOp(cpu::Op::Kind::read, addr, 8),
                  divCeil(size, pageSize), pageSize);
}

ScriptBuilder &
ScriptBuilder::read(Addr addr, std::uint64_t size)
{
    return append(makeOp(cpu::Op::Kind::read, addr, size));
}

ScriptBuilder &
ScriptBuilder::write(Addr addr, std::uint64_t size)
{
    return append(makeOp(cpu::Op::Kind::write, addr, size));
}

ScriptBuilder &
ScriptBuilder::compute(Cycles cycles)
{
    return append(makeOp(cpu::Op::Kind::compute, 0, cycles));
}

ScriptBuilder &
ScriptBuilder::faseStart()
{
    return append(makeOp(cpu::Op::Kind::faseStart));
}

ScriptBuilder &
ScriptBuilder::faseEnd()
{
    return append(makeOp(cpu::Op::Kind::faseEnd));
}

ScriptBuilder &
ScriptBuilder::exit()
{
    return append(makeOp(cpu::Op::Kind::exit));
}

std::unique_ptr<ScriptStream>
ScriptBuilder::build()
{
    return std::unique_ptr<ScriptStream>(
        new ScriptStream(std::move(runs)));
}

std::unique_ptr<ScriptStream>
seqAllocTouch(std::uint64_t alloc_bytes, bool nvm)
{
    kindle_assert(isAligned(alloc_bytes, pageSize),
                  "allocation must be page aligned");
    ScriptBuilder b;
    b.mmapFixed(scriptBase, alloc_bytes, nvm);
    b.touchPages(scriptBase, alloc_bytes);
    b.munmap(scriptBase, alloc_bytes);
    b.exit();
    return b.build();
}

std::unique_ptr<ScriptStream>
strideAlloc(std::uint64_t stride_bytes, unsigned count, bool nvm,
            unsigned access_rounds, Cycles round_compute)
{
    kindle_assert(stride_bytes >= pageSize, "stride below page size");
    ScriptBuilder b;
    for (unsigned i = 0; i < count; ++i)
        b.mmapFixed(scriptBase + i * stride_bytes, pageSize, nvm);
    for (unsigned i = 0; i < count; ++i)
        b.write(scriptBase + i * stride_bytes);
    for (unsigned r = 0; r < access_rounds; ++r) {
        for (unsigned i = 0; i < count; ++i)
            b.read(scriptBase + i * stride_bytes);
        b.compute(round_compute);
    }
    for (unsigned i = 0; i < count; ++i)
        b.munmap(scriptBase + i * stride_bytes, pageSize);
    b.exit();
    return b.build();
}

std::unique_ptr<ScriptStream>
churnBench(std::uint64_t arena_bytes, std::uint64_t churn_bytes,
           unsigned rounds, unsigned access_rounds, bool nvm)
{
    kindle_assert(churn_bytes <= arena_bytes,
                  "churn larger than the arena");
    ScriptBuilder b;
    // Arena setup: map and make every PTE valid.
    b.mmapFixed(scriptBase, arena_bytes, nvm);
    b.touchPages(scriptBase, arena_bytes);

    for (unsigned r = 0; r < rounds; ++r) {
        // Free a fixed size from the start, reallocate it ...
        b.munmap(scriptBase, churn_bytes);
        b.mmapFixed(scriptBase, churn_bytes, nvm);
        // ... and access the reallocated region (multiple rounds to
        // force TLB misses in the Table IV variant).
        for (unsigned a = 0; a < access_rounds; ++a)
            b.readPages(scriptBase, churn_bytes);
    }

    b.munmap(scriptBase, arena_bytes);
    b.exit();
    return b.build();
}

} // namespace kindle::micro
