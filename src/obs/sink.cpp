#include "src/obs/sink.hpp"

#include <cstdio>
#include <ostream>

namespace beepmis::obs {

void JsonlSink::on_round(const RoundEvent& e) {
  char buf[384];
  int len;
  if (e.has_analysis) {
    len = std::snprintf(
        buf, sizeof buf,
        "{\"round\":%llu,\"beeps_ch1\":%u,\"beeps_ch2\":%u,"
        "\"heard_ch1\":%u,\"heard_ch2\":%u,\"heard_any\":%u,"
        "\"prominent\":%u,\"stable\":%u,\"mis\":%u,\"active\":%u,"
        "\"lemma31_violations\":%u}\n",
        static_cast<unsigned long long>(e.round), e.beeps_ch1, e.beeps_ch2,
        e.heard_ch1, e.heard_ch2, e.heard_any, e.prominent, e.stable, e.mis,
        e.active, e.lemma31_violations);
  } else {
    len = std::snprintf(
        buf, sizeof buf,
        "{\"round\":%llu,\"beeps_ch1\":%u,\"beeps_ch2\":%u,"
        "\"heard_ch1\":%u,\"heard_ch2\":%u,\"heard_any\":%u,"
        "\"prominent\":%u,\"stable\":%u,\"mis\":%u,\"active\":%u}\n",
        static_cast<unsigned long long>(e.round), e.beeps_ch1, e.beeps_ch2,
        e.heard_ch1, e.heard_ch2, e.heard_any, e.prominent, e.stable, e.mis,
        e.active);
  }
  if (len > 0) {
    // Whole-line append under the lock: concurrent producers never
    // interleave records (the formatting above ran lock-free).
    std::lock_guard<std::mutex> lock(mu_);
    os_->write(buf, len);
    ++lines_;
  }
}

bool event_validate(const JsonValue& line, std::string* error) {
  const char* bad = nullptr;
  if (!json_is_count(line.get("round")))
    bad = "round";
  else if (line.has("active") && !json_is_count(line.get("active")))
    bad = "active";
  if (bad != nullptr && error != nullptr)
    *error = std::string("\"") + bad + "\" must be an integer in [0, 2^53]";
  return bad == nullptr;
}

}  // namespace beepmis::obs
