#include "trace.h"

#include <atomic>
#include <unordered_map>

#include "ddl/analysis/bench_json.h"

namespace perfbench {
namespace {

/// The innermost open span of the calling thread (0 = none).
thread_local std::uint64_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next++;
  return index;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Span::Span(Tracer* tracer, std::string name, std::string request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    open_ = false;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    record_.id = tracer_->next_id_++;
  }
  record_.parent = t_open_span;
  record_.thread = thread_index();
  record_.name = std::move(name);
  record_.request = std::move(request);
  saved_parent_ = t_open_span;
  t_open_span = record_.id;
  record_.start_us = tracer_->now_us();
}

Tracer::Span::~Span() { end(); }

double Tracer::Span::end() {
  if (open_) {
    open_ = false;
    record_.end_us = tracer_->now_us();
    t_open_span = saved_parent_;
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_.push_back(record_);
  }
  return record_.duration_us();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

std::map<std::string, double> Tracer::by_request(
    const std::string& name) const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out[span.request] = span.duration_us();
    }
  }
  return out;
}

std::map<std::string, double> Tracer::layer_self_us() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, double> child_us;
  for (const SpanRecord& span : all) {
    if (span.parent != 0) {
      child_us[span.parent] += span.duration_us();
    }
  }
  std::map<std::string, double> out;
  for (const SpanRecord& span : all) {
    const auto it = child_us.find(span.id);
    const double children = it == child_us.end() ? 0.0 : it->second;
    out[layer_of(span.name)] += span.duration_us() - children;
  }
  return out;
}

double Tracer::root_us() const {
  double total = 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const SpanRecord& span : spans_) {
    if (span.parent == 0) {
      total += span.duration_us();
    }
  }
  return total;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::string out;
  for (const SpanRecord& span : spans()) {
    ddl::analysis::JsonObject line;
    line.set("id", span.id);
    line.set("parent", span.parent);
    line.set("thread", static_cast<std::uint64_t>(span.thread));
    line.set("name", span.name);
    line.set("request", span.request);
    line.set("start_us", span.start_us);
    line.set("end_us", span.end_us);
    out += line.to_json_line();
    out += '\n';
  }
  ddl::analysis::write_file_atomic(path, out);
}

}  // namespace perfbench
