#ifndef PHXBENCH_STATS_H_
#define PHXBENCH_STATS_H_

// Sample statistics, a minimal JSON writer, and the in-memory span recorder
// of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace phxbench {

/// Linear-interpolated quantile (q in [0,1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
double Mean(const std::vector<double>& samples);

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Builds one JSON object; values are numbers, strings, or nested objects.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  /// Pre-rendered JSON (an array, say).
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);
/// Shortest round-trip representation; non-finite values become 0.
std::string JsonNumber(double value);

/// Spans of the traced run: held in memory, written out once at exit in
/// Chrome trace-event format (load spans.json in chrome://tracing or
/// Perfetto). A span's parent is the span open on the same thread when it
/// began; spans of one application operation share its op id.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t op = 0;
    int thread = 0;
  };

  /// RAII span; does nothing when `recorder` is null (untraced run).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  std::vector<Span> spans() const;
  /// Per span name: count, total and self time (duration minus the part
  /// covered by its children), in microseconds.
  struct NameTotals {
    uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
  };
  std::map<std::string, NameTotals> Totals() const;
  std::string ExportChromeJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

}  // namespace phxbench

#endif  // PHXBENCH_STATS_H_
