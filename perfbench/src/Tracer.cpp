//===- perfbench/src/Tracer.cpp - Benchmark-side span recorder -------------===//

#include "Tracer.h"

#include <atomic>

using namespace perfbench;

namespace {

uint32_t threadIndex() {
  static std::atomic<uint32_t> NextTid{0};
  thread_local const uint32_t Tid = NextTid++;
  return Tid;
}

} // namespace

int64_t perfbench::nowNs() {
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

uint64_t Tracer::nextSeq() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return ++LastSeq;
}

void Tracer::record(const Span &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(S);
}

ScopedSpan::ScopedSpan(Tracer &T, const char *Name, uint64_t Id,
                       uint64_t Parent)
    : T(T) {
  if (!T.enabled())
    return;
  S.Name = Name;
  S.Seq = T.nextSeq();
  S.Parent = Parent;
  S.Id = Id;
  S.Tid = threadIndex();
  S.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (S.Seq == 0)
    return;
  S.EndNs = nowNs();
  T.record(S);
}
