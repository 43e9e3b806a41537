// Structured-control helpers over the block-local-SSA builder: counted
// loops and conditionals that re-materialise loop state through locals,
// exactly like clang -O0 lowers C control flow.
#pragma once

#include <functional>

#include "mir/builder.hpp"

namespace hwst::workloads {

using mir::FunctionBuilder;
using mir::Value;
using common::i64;
using mir::u32;

/// for (i = lo; i < hi; i += step) body(). The body reads the counter
/// via b.load_local(ivar).
inline void for_range(FunctionBuilder& b, u32 ivar, i64 lo, i64 hi,
                      const std::function<void()>& body, i64 step = 1)
{
    const auto head = b.block("for_head");
    const auto loop = b.block("for_body");
    const auto exit = b.block("for_exit");
    b.store_local(ivar, b.const_i64(lo));
    b.jmp(head);
    b.set_insert(head);
    b.br(b.lt(b.load_local(ivar), b.const_i64(hi)), loop, exit);
    b.set_insert(loop);
    body();
    b.store_local(ivar, b.add(b.load_local(ivar), b.const_i64(step)));
    b.jmp(head);
    b.set_insert(exit);
}

/// while (cond()) body(). cond is evaluated in its own block.
inline void while_loop(FunctionBuilder& b,
                       const std::function<Value()>& cond,
                       const std::function<void()>& body)
{
    const auto head = b.block("while_head");
    const auto loop = b.block("while_body");
    const auto exit = b.block("while_exit");
    b.jmp(head);
    b.set_insert(head);
    b.br(cond(), loop, exit);
    b.set_insert(loop);
    body();
    b.jmp(head);
    b.set_insert(exit);
}

/// if (cond) then(). cond must be defined in the current block.
inline void if_then(FunctionBuilder& b, Value cond,
                    const std::function<void()>& then)
{
    const auto t = b.block("if_then");
    const auto merge = b.block("if_merge");
    b.br(cond, t, merge);
    b.set_insert(t);
    then();
    b.jmp(merge);
    b.set_insert(merge);
}

/// if (cond) then() else otherwise().
inline void if_else(FunctionBuilder& b, Value cond,
                    const std::function<void()>& then,
                    const std::function<void()>& otherwise)
{
    const auto t = b.block("if_then");
    const auto f = b.block("if_else");
    const auto merge = b.block("if_merge");
    b.br(cond, t, f);
    b.set_insert(t);
    then();
    b.jmp(merge);
    b.set_insert(f);
    otherwise();
    b.jmp(merge);
    b.set_insert(merge);
}

/// A deterministic xorshift step on a local PRNG state.
inline Value xorshift_step(FunctionBuilder& b, u32 state_local)
{
    Value x = b.load_local(state_local);
    x = b.xor_(x, b.shl(x, b.const_i64(13)));
    x = b.xor_(x, b.shr(x, b.const_i64(7)));
    x = b.xor_(x, b.shl(x, b.const_i64(17)));
    b.store_local(state_local, x);
    return x;
}

} // namespace hwst::workloads
