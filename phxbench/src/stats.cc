#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace phxbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::string JsonEscape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonEscape(key) + ": ";
}
JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}
JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonEscape(value);
  return *this;
}
JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}
JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  return Raw(key, value.str());
}
JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

namespace {
// The innermost open span of this thread, and a small per-thread index.
thread_local uint64_t tls_open_span = 0;
thread_local uint64_t tls_open_op = 0;
int ThreadIndex() {
  static std::mutex mu;
  static int next = 0;
  thread_local int index = -1;
  if (index < 0) {
    std::lock_guard<std::mutex> lk(mu);
    index = next++;
  }
  return index;
}
}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           uint64_t op)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lk(recorder_->mu_);
    span_.id = recorder_->next_id_++;
  }
  span_.name = name;
  span_.parent = tls_open_span;
  span_.op = op != 0 ? op : tls_open_op;
  span_.thread = ThreadIndex();
  tls_open_span = span_.id;
  tls_open_op = span_.op;
  span_.start_us = NowUs();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_us = NowUs();
  tls_open_span = span_.parent;
  if (span_.parent == 0) tls_open_op = 0;
  std::lock_guard<std::mutex> lk(recorder_->mu_);
  recorder_->spans_.push_back(std::move(span_));
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::Totals() const {
  std::vector<Span> all = spans();
  std::map<uint64_t, double> child_us;  // parent id → covered time
  for (const Span& s : all) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& s : all) {
    NameTotals& t = totals[s.name];
    double dur = s.end_us - s.start_us;
    ++t.count;
    t.total_us += dur;
    auto it = child_us.find(s.id);
    t.self_us += dur - (it == child_us.end() ? 0.0 : it->second);
  }
  return totals;
}

std::string SpanRecorder::ExportChromeJson() const {
  std::vector<Span> all = spans();
  std::string out = "{\"traceEvents\": [\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    JsonObject args;
    args.Int("id", static_cast<int64_t>(s.id))
        .Int("parent", static_cast<int64_t>(s.parent))
        .Int("op", static_cast<int64_t>(s.op));
    JsonObject ev;
    ev.Str("name", s.name)
        .Str("ph", "X")
        .Num("ts", s.start_us)
        .Num("dur", s.end_us - s.start_us)
        .Int("pid", 1)
        .Int("tid", s.thread)
        .Obj("args", args);
    out += ev.str();
    out += (i + 1 < all.size()) ? ",\n" : "\n";
  }
  return out + "]}\n";
}

}  // namespace phxbench
