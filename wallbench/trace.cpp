#include "trace.h"

namespace wallbench {

std::size_t Tracer::begin(std::string name, std::uint64_t bytes) {
  if (!enabled_) return kNoSpan;
  Record record;
  record.name = std::move(name);
  record.request = request_;
  record.parent = open_.empty() ? kNoSpan : open_.back();
  record.bytes = bytes;
  record.start_ns = now_ns();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::end(std::size_t id) {
  if (id == kNoSpan) return;
  records_[id].end_ns = now_ns();
  // Spans close in LIFO order (they are scoped), so `id` is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::child_time_us() const {
  std::vector<double> covered(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent != kNoSpan) covered[r.parent] += r.duration_us();
  }
  return covered;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  std::vector<double> covered = child_time_us();
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Layer& layer = out[r.name];
    layer.durations_us.push_back(r.duration_us());
    layer.total_us += r.duration_us();
    layer.self_us += r.duration_us() - covered[i];
    layer.bytes += r.bytes;
  }
  return out;
}

}  // namespace wallbench
