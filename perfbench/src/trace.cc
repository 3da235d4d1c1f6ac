// Copyright 2026 The rvar Authors.

#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {
namespace {

constexpr size_t kMaxRawSpansPerThread = 20000;

struct RawSpan {
  const char* name;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
};

// One recording thread's spans. Owned by the global list so a buffer
// outlives the thread that filled it.
struct ThreadBuffer {
  uint64_t thread_index = 0;
  uint64_t next_local_id = 0;
  std::vector<uint64_t> open;  // ids of the spans currently open
  std::vector<RawSpan> raw;
  uint64_t raw_dropped = 0;
  std::vector<std::pair<const char*, std::vector<int64_t>>> durations;

  std::vector<int64_t>& DurationsOf(const char* name) {
    for (auto& [n, d] : durations) {
      if (n == name) return d;
    }
    durations.emplace_back(name, std::vector<int64_t>());
    return durations.back().second;
  }
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_mu
thread_local ThreadBuffer* t_buffer = nullptr;

ThreadBuffer& LocalBuffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread_index = g_buffers.size();
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace

void SetTracing(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

Span::Span(const char* name)
    : name_(name), active_(g_enabled.load(std::memory_order_relaxed)) {
  if (!active_) return;
  ThreadBuffer& buffer = LocalBuffer();
  id_ = (buffer.thread_index << 40) | ++buffer.next_local_id;
  parent_ = buffer.open.empty() ? 0 : buffer.open.back();
  buffer.open.push_back(id_);
  start_ns_ = NowNs();
}

Span::~Span() {
  if (!active_) return;
  const int64_t end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.DurationsOf(name_).push_back(end_ns - start_ns_);
  if (buffer.raw.size() < kMaxRawSpansPerThread) {
    buffer.raw.push_back({name_, id_, parent_, start_ns_, end_ns});
  } else {
    ++buffer.raw_dropped;
  }
}

std::vector<double> SpanSeconds(const char* name) {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    for (const auto& [n, d] : buffer->durations) {
      if (n != name) continue;
      for (int64_t ns : d) out.push_back(static_cast<double>(ns) * 1e-9);
    }
  }
  return out;
}

bool DumpSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    for (const RawSpan& s : buffer->raw) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":%llu,\"id\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name,
                   static_cast<unsigned long long>(buffer->thread_index),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    for (const auto& [name, d] : buffer->durations) {
      long long total = 0;
      for (int64_t ns : d) total += ns;
      std::fprintf(f,
                   "{\"summary\":\"%s\",\"thread\":%llu,\"count\":%zu,"
                   "\"total_ns\":%lld,\"raw_dropped\":%llu}\n",
                   name, static_cast<unsigned long long>(buffer->thread_index),
                   d.size(), total,
                   static_cast<unsigned long long>(buffer->raw_dropped));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
