// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions: name, start, duration and the span that
// was open when it began (its parent). They stay in memory and are
// written once, at the end, as chrome://tracing JSON; perfbench/benchlib.py
// derives each layer's self time (duration minus the part of it that child
// spans cover) from that file. Single-threaded by design: the traced run
// calls the layers serially, so one open-span stack is the whole story.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    long parent = -1;  ///< index of the enclosing span, -1 at top level
    double ts_us = 0.0;
    double dur_us = 0.0;
  };

  long begin(const char* name) {
    const long id = static_cast<long>(spans_.size());
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.ts_us = now_us();
    spans_.push_back(std::move(s));
    stack_.push_back(id);
    return id;
  }

  void end(long id) {
    spans_[static_cast<size_t>(id)].dur_us =
        now_us() - spans_[static_cast<size_t>(id)].ts_us;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents": [...]} with one complete ("X") event per span; the
  /// span id and parent travel in args. Returns false on I/O failure.
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"traceEvents\": [", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %ld}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.ts_us, s.dur_us, i,
                   s.parent);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<long> stack_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scoped {
 public:
  Scoped(Tracer* t, const char* name) : t_(t), id_(t ? t->begin(name) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  long id_;
};

}  // namespace perfbench
