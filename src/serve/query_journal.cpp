#include "serve/query_journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "util/crc64.hpp"

namespace kmm {
namespace {

constexpr char kCrcMarker[] = " crc=";

std::string crc_suffix(const std::string& body) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "%s%016" PRIx64, kCrcMarker,
                crc64(body.data(), body.size()));
  return hex;
}

/// Split "body crc=<16 hex>" and verify; returns false on any mismatch.
bool check_line(const std::string& line, std::string& body) {
  const std::size_t marker = line.rfind(kCrcMarker);
  if (marker == std::string::npos) return false;
  const std::string hex = line.substr(marker + sizeof(kCrcMarker) - 1);
  if (hex.size() != 16) return false;
  std::uint64_t want = 0;
  for (const char c : hex) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    want = (want << 4) | static_cast<std::uint64_t>(digit);
  }
  body = line.substr(0, marker);
  return crc64(body.data(), body.size()) == want;
}

/// Whitespace-token cursor over a verified record body.
class TokenReader {
 public:
  explicit TokenReader(const std::string& body) : body_(&body) {}

  [[nodiscard]] bool u64(std::uint64_t& out) {
    while (pos_ < body_->size() && (*body_)[pos_] == ' ') ++pos_;
    if (pos_ >= body_->size()) return false;
    std::uint64_t value = 0;
    bool any = false;
    while (pos_ < body_->size() && (*body_)[pos_] >= '0' && (*body_)[pos_] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>((*body_)[pos_] - '0');
      ++pos_;
      any = true;
    }
    if (!any || (pos_ < body_->size() && (*body_)[pos_] != ' ')) return false;
    out = value;
    return true;
  }

  [[nodiscard]] bool done() {
    while (pos_ < body_->size() && (*body_)[pos_] == ' ') ++pos_;
    return pos_ == body_->size();
  }

 private:
  const std::string* body_;
  std::size_t pos_ = 0;
};

bool parse_submitted(const std::string& body, std::uint64_t& id, QueryRequest& req) {
  TokenReader r(body);
  std::uint64_t kind = 0, nedges = 0;
  std::uint64_t s = 0, t = 0, x = 0, y = 0;
  if (!r.u64(id) || !r.u64(kind) || !r.u64(req.seed) || !r.u64(req.budget.deadline_ms) ||
      !r.u64(req.budget.max_supersteps) || !r.u64(req.budget.max_ledger_bits) ||
      !r.u64(s) || !r.u64(t) || !r.u64(x) || !r.u64(y) || !r.u64(nedges)) {
    return false;
  }
  if (kind >= kQueryKindCount) return false;
  req.kind = static_cast<QueryKind>(kind);
  req.s = static_cast<Vertex>(s);
  req.t = static_cast<Vertex>(t);
  req.x = static_cast<Vertex>(x);
  req.y = static_cast<Vertex>(y);
  req.edges.clear();
  req.edges.reserve(static_cast<std::size_t>(nedges));
  for (std::uint64_t i = 0; i < nedges; ++i) {
    std::uint64_t u = 0, v = 0;
    if (!r.u64(u) || !r.u64(v)) return false;
    req.edges.emplace_back(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  return r.done();
}

}  // namespace

Expected<std::unique_ptr<QueryJournal>, DurableError> QueryJournal::open(
    const std::string& path, bool fsync) {
  using Result = Expected<std::unique_ptr<QueryJournal>, DurableError>;
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Result::err({DurableErrorCode::kIo,
                        std::string("open failed: ") + std::strerror(errno), path});
  }
  // Seal a torn tail before appending anything: a SIGKILL mid-append can
  // leave the final line without its newline, and O_APPEND would then weld
  // the next record onto it — corrupting BOTH. One newline isolates the torn
  // bytes into a line replay() rejects by CRC, keeping every later record
  // line-aligned.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    char last = '\n';
    if (::pread(fd, &last, 1, st.st_size - 1) == 1 && last != '\n') {
      while (::write(fd, "\n", 1) < 0 && errno == EINTR) {
      }
    }
  }
  return Result(std::unique_ptr<QueryJournal>(new QueryJournal(path, fd, fsync)));
}

QueryJournal::~QueryJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void QueryJournal::append_line(const std::string& body) {
  std::string line = body;
  line += crc_suffix(body);
  line += '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t off = 0;
  bool ok = true;
  while (off < line.size()) {
    const ssize_t w = ::write(fd_, line.data() + off, line.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    off += static_cast<std::size_t>(w);
  }
  if (ok && fsync_ && ::fsync(fd_) != 0) ok = false;
  if (ok) {
    ++stats_.appended;
  } else {
    ++stats_.append_failures;
    if (!warned_) {
      warned_ = true;
      std::fprintf(stderr, "kmm: query journal append failed on '%s': %s\n", path_.c_str(),
                   std::strerror(errno));
    }
  }
}

void QueryJournal::record_submitted(std::uint64_t id, const QueryRequest& request) {
  std::string body = "S";
  const auto field = [&body](std::uint64_t value) {
    body += ' ';
    body += std::to_string(value);
  };
  field(id);
  field(static_cast<unsigned>(request.kind));
  field(request.seed);
  field(request.budget.deadline_ms);
  field(request.budget.max_supersteps);
  field(request.budget.max_ledger_bits);
  field(request.s);
  field(request.t);
  field(request.x);
  field(request.y);
  field(request.edges.size());
  for (const auto& [u, v] : request.edges) {
    field(u);
    field(v);
  }
  append_line(body);
}

void QueryJournal::record_completed(std::uint64_t id, bool ok) {
  std::string body = "C ";
  body += std::to_string(id);
  body += ok ? " 1" : " 0";
  append_line(body);
}

QueryJournal::Stats QueryJournal::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Expected<QueryJournal::Replay, DurableError> QueryJournal::replay(const std::string& path) {
  using Result = Expected<Replay, DurableError>;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Result::err({DurableErrorCode::kIo,
                        std::string("open failed: ") + std::strerror(errno), path});
  }
  std::map<std::uint64_t, QueryRequest> submitted;
  std::set<std::uint64_t> completed;
  Replay replay;
  std::string line;
  int c;
  bool eof = false;
  while (!eof) {
    line.clear();
    while ((c = std::fgetc(f)) != EOF && c != '\n') line.push_back(static_cast<char>(c));
    eof = c == EOF;
    if (line.empty()) continue;  // includes the final newline-terminated EOF pass
    // A line without its newline is the torn tail of a dying append — its
    // CRC check below rejects it unless the kill landed exactly after the
    // full record, in which case it IS complete and counts.
    std::string body;
    if (!check_line(line, body) || body.size() < 2 || body[1] != ' ') {
      ++replay.torn_records;
      continue;
    }
    const char type = body[0];
    const std::string rest = body.substr(2);
    if (type == 'S') {
      std::uint64_t id = 0;
      QueryRequest req;
      if (!parse_submitted(rest, id, req)) {
        ++replay.torn_records;
        continue;
      }
      submitted.emplace(id, std::move(req));  // first submission wins
      replay.max_id = std::max(replay.max_id, id);
    } else if (type == 'C') {
      TokenReader r(rest);
      std::uint64_t id = 0, ok = 0;
      if (!r.u64(id) || !r.u64(ok) || !r.done() || ok > 1) {
        ++replay.torn_records;
        continue;
      }
      completed.insert(id);
      replay.max_id = std::max(replay.max_id, id);
    } else {
      ++replay.torn_records;
    }
  }
  std::fclose(f);
  replay.submitted = submitted.size();
  replay.completed = completed.size();
  for (auto& [id, req] : submitted) {
    if (completed.count(id) == 0) replay.pending.emplace_back(id, std::move(req));
  }
  return Result(std::move(replay));
}

}  // namespace kmm
