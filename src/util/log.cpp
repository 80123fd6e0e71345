#include "util/log.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

namespace pastis::util {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::mutex g_mutex;
std::atomic<int> g_next_thread_id{0};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO ";
    case LogLevel::kWarn:
      return "WARN ";
    case LogLevel::kError:
      return "ERROR";
    default:
      return "?????";
  }
}

/// Reads PASTIS_LOG_LEVEL once before main() so the very first log line
/// already honours it.
const bool g_env_applied = [] {
  init_log_level_from_env();
  return true;
}();

}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

LogLevel parse_log_level(const std::string& name, LogLevel fallback) {
  std::string lower;
  lower.reserve(name.size());
  for (const char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "debug") return LogLevel::kDebug;
  if (lower == "info") return LogLevel::kInfo;
  if (lower == "warn" || lower == "warning") return LogLevel::kWarn;
  if (lower == "error") return LogLevel::kError;
  if (lower == "off" || lower == "none") return LogLevel::kOff;
  return fallback;
}

void init_log_level_from_env() {
  (void)g_env_applied;
  if (const char* env = std::getenv("PASTIS_LOG_LEVEL")) {
    set_log_level(parse_log_level(env, log_level()));
  }
}

int log_thread_id() {
  thread_local const int id = g_next_thread_id.fetch_add(1);
  return id;
}

std::string format_log_line(LogLevel level, const std::string& message) {
  // ISO-8601 UTC with millisecond precision: 2026-08-07T12:34:56.789Z.
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the widest output the formats allow, so snprintf never
  // truncates: each %d of an int can take 11 characters ("-2147483648"),
  // the milliseconds 4, the separators and 'Z' 7, plus the terminator.
  constexpr std::size_t kIntChars = 11;
  char stamp[6 * kIntChars + 4 + 7 + 1];
  std::snprintf(stamp, sizeof stamp,
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(ms));
  // " [pastis " + 5-letter tag + " tid " + an int + "] ".
  char prefix[sizeof stamp + 9 + 5 + 5 + kIntChars + 2];
  std::snprintf(prefix, sizeof prefix, "%s [pastis %s tid %d] ", stamp,
                level_tag(level), log_thread_id());
  return std::string(prefix) + message;
}

void log_line(LogLevel level, const std::string& message) {
  const std::string line = format_log_line(level, message);
  std::lock_guard lock(g_mutex);
  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace pastis::util
