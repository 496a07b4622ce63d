// The log-structured protocol APIs (paper Figure 2).
//
// An engine implements IEngine over another engine with the same API (or,
// for the BaseEngine, over the shared log); it registers itself as the
// IApplicator of the engine below it, forming a stack. The application sits
// on top: its Wrapper calls Propose/Sync on the top engine and its
// Applicator receives totally ordered entries through Apply.
//
// Return values: the paper templates engines on ReturnType; we use std::any
// (returns are consumed only by the local proposer and never serialized).
//
// Exception relay: a deterministic exception thrown by a layer's apply is
// converted by its *invoker* into an ApplyError value after rolling back the
// layer's nested sub-transaction. Propagating the error as a value — rather
// than unwinding the C++ stack — is what preserves the writes of the layers
// below the thrower (§3.4). The BaseEngine finally relays the ApplyError to
// the waiting propose call, which rethrows it, giving RPC-like semantics.
#pragma once

#include <any>
#include <exception>
#include <utility>

#include "src/common/future.h"
#include "src/core/entry.h"
#include "src/localstore/localstore.h"
#include "src/sharedlog/shared_log.h"

namespace delos {

// A deterministic exception captured from an apply upcall, traveling down
// the stack as a value (inside std::any) toward the waiting propose.
struct ApplyError {
  std::exception_ptr error;
};

inline bool IsApplyError(const std::any& result) { return result.type() == typeid(ApplyError); }

// Completes a proposer's promise with the value its entry's apply returned,
// rethrowing an ApplyError to the proposer.
inline void SettleProposal(Promise<std::any>& promise, std::any result) {
  if (IsApplyError(result)) {
    promise.SetException(std::any_cast<const ApplyError&>(result).error);
  } else {
    promise.SetValue(std::move(result));
  }
}

// Receives totally ordered log entries (paper: IApplicator).
class IApplicator {
 public:
  virtual ~IApplicator() = default;

  // Applies one log entry. All LocalStore access must go through `txn`; the
  // invoker wraps this call in a nested sub-transaction and rolls it back if
  // a DeterministicError escapes. Runs on the single apply thread.
  virtual std::any Apply(RWTxn& txn, const LogEntry& entry, LogPos pos) = 0;

  // Invoked after the entry's transaction committed; safe place for soft
  // (non-transactional) state updates such as caches and watches.
  virtual void PostApply(const LogEntry& entry, LogPos pos) {}
};

// A log-structured protocol engine (paper: IEngine).
class IEngine {
 public:
  virtual ~IEngine() = default;

  // Proposes an entry; the future yields the value the local Apply returned
  // for it (or rethrows the deterministic exception the apply threw).
  virtual Future<std::any> Propose(LogEntry entry) = 0;

  // Returns a read-only snapshot reflecting every write that completed
  // before this call (a linearizable snapshot).
  virtual Future<ROTxn> Sync() = 0;

  // Registers the layer above (engine or application applicator).
  virtual void RegisterUpcall(IApplicator* applicator) = 0;

  // Tells this engine that the log prefix up to `pos` may be trimmed as far
  // as the layers above are concerned. Engines relay the minimum of this
  // constraint and their own opinion (§3.3).
  virtual void SetTrimPrefix(LogPos pos) = 0;

  // Hands over a proposal that a layer above completes from its PostApply
  // (SessionOrder's short-circuit). The BaseEngine settles it in the
  // batch's completion pass: after every postApply of the batch and after
  // applied_position() covers the batch, ahead of its own proposers. So a
  // proposer woken by it sees its entry applied, and no read waits out the
  // fan-out. Call only from PostApply. Middle engines forward it down; the
  // default settles at once.
  virtual void CompleteAfterPublish(Promise<std::any> promise, std::any result) {
    SettleProposal(promise, std::move(result));
  }
};

// Sentinel for "no trim constraint from above".
inline constexpr LogPos kNoTrimConstraint = UINT64_MAX;

}  // namespace delos
