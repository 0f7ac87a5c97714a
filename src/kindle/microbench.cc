#include "kindle/microbench.hh"

#include "base/intmath.hh"
#include "base/logging.hh"

namespace kindle::micro
{

ScriptBuilder &
ScriptBuilder::mmapFixed(Addr addr, std::uint64_t size, bool nvm)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::mmap;
    op.addr = addr;
    op.size = size;
    op.flags = cpu::mapFixed;
    if (nvm)
        op.flags |= cpu::mapNvm;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::munmap(Addr addr, std::uint64_t size)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::munmap;
    op.addr = addr;
    op.size = size;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::mremap(Addr addr, std::uint64_t old_size,
                      std::uint64_t new_size)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::mremap;
    op.addr = addr;
    op.size = old_size;
    op.flags = static_cast<std::uint32_t>(new_size >> pageShift);
    // The kernel's dispatch interprets flags as the new size in pages
    // for mremap ops (Op has only one spare field wide enough).
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::mprotect(Addr addr, std::uint64_t size,
                        std::uint32_t prot)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::mprotect;
    op.addr = addr;
    op.size = size;
    op.flags = prot;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::touchPages(Addr addr, std::uint64_t size)
{
    for (Addr a = addr; a < addr + size; a += pageSize)
        write(a);
    return *this;
}

ScriptBuilder &
ScriptBuilder::readPages(Addr addr, std::uint64_t size)
{
    for (Addr a = addr; a < addr + size; a += pageSize)
        read(a);
    return *this;
}

ScriptBuilder &
ScriptBuilder::read(Addr addr, std::uint64_t size)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::read;
    op.addr = addr;
    op.size = size;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::write(Addr addr, std::uint64_t size)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::write;
    op.addr = addr;
    op.size = size;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::compute(Cycles cycles)
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::compute;
    op.size = cycles;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::faseStart()
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::faseStart;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::faseEnd()
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::faseEnd;
    ops.push_back(op);
    return *this;
}

ScriptBuilder &
ScriptBuilder::exit()
{
    cpu::Op op;
    op.kind = cpu::Op::Kind::exit;
    ops.push_back(op);
    return *this;
}

std::unique_ptr<ScriptStream>
ScriptBuilder::build()
{
    return std::make_unique<ScriptStream>(std::move(ops));
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
