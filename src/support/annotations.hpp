#pragma once

// Semantic function markers read by the FLightNN lint (tools/flightnn_lint).
// Each macro states an invariant the lint then enforces on every run of
// tools/run_static_analysis.sh and in CI -- the static half of guarantees
// the runtime tests (arena_allocation_test, parallel_consistency_test,
// check_test) probe dynamically. DESIGN.md §12 documents the rules.
//
// Placement: on the function *definition*, before the return type:
//
//   FLIGHTNN_HOT tensor::Tensor ShiftConv2d::run(...) const { ... }
//
// Violations are suppressed per line, never per file, with a justified
//
//   // FLIGHTNN_LINT_SUPPRESS(rule-name): why this line is safe
//
// comment on (or immediately above) the offending line; the lint rejects
// suppressions with an empty justification.

// Steady-state hot path: no heap allocation may be reachable from this
// function -- no new/malloc, no allocating container calls, transitively
// through every repo-defined callee the lint can resolve. Traversal stops at
// functions that are themselves FLIGHTNN_HOT (independently checked) or
// FLIGHTNN_COLD_ALLOC (allocation allowed by design, see below). Also a real
// optimizer hint: hot functions are optimized more aggressively and placed
// together for locality. Each starts on a 64-byte cache line, so its loops'
// alignment does not move with unrelated code (a 16-byte shift of the hot
// section, from smaller cold code linked before it, moved the perf ledger's
// latency_ms by 3-8% on every workload).
#define FLIGHTNN_HOT __attribute__((hot, aligned(64)))

// Cache-line start, alone: for a forward-pass function that cannot be
// FLIGHTNN_HOT (it may grow its scratch once), so that its loops'
// alignment does not move with unrelated code either (left unaligned, a
// change elsewhere in shift_engine.cpp moved the activation code loop 48
// bytes into its cache line, and ResNet-18's perf-ledger latency_ms read
// +0.7%).
#define FLIGHTNN_ALIGNED __attribute__((aligned(64)))

// Grow-once / cold-path allocator: this function may allocate, by design,
// because its allocations die out in steady state (scratch-arena high-water
// growth, tensor-pool refill) or happen once at construction. Marks the
// boundary where FLIGHTNN_HOT traversal stops; the dynamic operator-new
// hook in tests/arena_allocation_test is what verifies the "dies out in
// steady state" half of the claim.
#define FLIGHTNN_COLD_ALLOC

// Pure integer shift kernel: the body must not mention float/double at all.
// The paper's datapath argument (and the int32 narrow-accumulator proof in
// DESIGN.md §9) holds only while accumulation stays integer; a float that
// sneaks into one of these functions silently re-introduces rounding and
// breaks bit-identical parallel reduction. Dequantization lives in the
// callers, after the kernel returns.
#define FLIGHTNN_INT_KERNEL

// Public API entry point: the body must state its precondition contract with
// a FLIGHTNN_CHECK / FLIGHTNN_CHECK_SHAPE within its first few statements,
// so malformed calls fail at the boundary with a typed CheckFailure instead
// of corrupting state deeper in the stack (support/check.hpp policy).
#define FLIGHTNN_API_ENTRY
