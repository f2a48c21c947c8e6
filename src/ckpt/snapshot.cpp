#include "ckpt/snapshot.hpp"

#include <bit>
#include <cstdio>

#include "util/spec_parser.hpp"

namespace abcl::ckpt {

// ---------------------------------------------------------------------------
// File transport
// ---------------------------------------------------------------------------

FileSink::FileSink(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "wb");
  ABCL_CHECK_MSG(f_ != nullptr,
                 ("checkpoint: cannot open \"" + path + "\" for writing").c_str());
}

FileSink::~FileSink() {
  if (f_ != nullptr) std::fclose(static_cast<std::FILE*>(f_));
}

void FileSink::write(const void* p, std::size_t n) {
  std::size_t w = std::fwrite(p, 1, n, static_cast<std::FILE*>(f_));
  ABCL_CHECK_MSG(w == n,
                 ("checkpoint: short write to \"" + path_ + "\"").c_str());
}

FileSource::FileSource(const std::string& path) {
  f_ = std::fopen(path.c_str(), "rb");
  ABCL_CHECK_MSG(f_ != nullptr,
                 ("checkpoint restore: cannot open \"" + path + "\"").c_str());
}

FileSource::~FileSource() {
  if (f_ != nullptr) std::fclose(static_cast<std::FILE*>(f_));
}

std::size_t FileSource::read(void* p, std::size_t n) {
  return std::fread(p, 1, n, static_cast<std::FILE*>(f_));
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::uint64_t checksum(const void* p, std::size_t n) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ull;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4full;
  // acc -> rotl(acc + w * kP2, 31) * kP1 is a bijection of w (odd
  // multiplier, add, rotate, odd multiplier) and of acc.
  auto round = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  };
  auto load = [](const unsigned char* b) {
    std::uint64_t w;
    std::memcpy(&w, b, sizeof w);
    return w;
  };
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lane[0] = round(lane[0], load(b + i));
    lane[1] = round(lane[1], load(b + i + 8));
    lane[2] = round(lane[2], load(b + i + 16));
    lane[3] = round(lane[3], load(b + i + 24));
  }
  std::size_t k = 0;
  for (; i + 8 <= n; i += 8, ++k) lane[k] = round(lane[k], load(b + i));
  if (i < n) {
    unsigned char tail[8] = {};
    std::memcpy(tail, b + i, n - i);
    lane[k] = round(lane[k], load(tail));
  }
  // Fold: h -> rotl(h ^ lane, 27) * kP1 is a bijection of each lane in
  // turn, and the length settles how much of the last word was padding.
  std::uint64_t h = static_cast<std::uint64_t>(n) * kP2;
  for (std::uint64_t l : lane) h = std::rotl(h ^ l, 27) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  return h;
}

namespace {

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t fingerprint;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
};
static_assert(std::is_trivially_copyable_v<Header> &&
              sizeof(Header) == kHeaderBytes);

void check_header(const Header& h, std::uint64_t program_fingerprint) {
  ABCL_CHECK_MSG(h.magic == kMagic,
                 "checkpoint restore: bad magic (not an abclsim snapshot?)");
  ABCL_CHECK_MSG(
      h.version == kVersion,
      ("checkpoint restore: snapshot version " + std::to_string(h.version) +
       ", this binary reads version " + std::to_string(kVersion))
          .c_str());
  ABCL_CHECK_MSG(h.fingerprint == program_fingerprint,
                 "checkpoint restore: program fingerprint mismatch (snapshot "
                 "was taken under a different Program)");
}

constexpr const char* kTruncatedHeader =
    "checkpoint restore: truncated stream (shorter than the snapshot header)";
constexpr const char* kTruncatedPayload =
    "checkpoint restore: truncated stream (payload shorter than the header "
    "claims)";
// An appended stream is not the stream that was checksummed.
constexpr const char* kTrailing =
    "checkpoint restore: trailing bytes after the snapshot";

// Reads `src` to its end (a short read() marks the end of the stream).
std::string drain(Source& src) {
  std::string out(std::size_t{1} << 16, '\0');
  std::size_t len = 0;
  for (;;) {
    const std::size_t want = out.size() - len;
    const std::size_t got = src.read(out.data() + len, want);
    len += got;
    if (got < want) break;
    out.resize(out.size() * 2);
  }
  out.resize(len);
  return out;
}

}  // namespace

void Writer::finish(std::uint64_t program_fingerprint, Sink& sink) {
  Header h{};
  h.magic = kMagic;
  h.version = kVersion;
  h.reserved = 0;
  h.fingerprint = program_fingerprint;
  h.payload_bytes = buf_.size() - kHeaderBytes;
  h.checksum = checksum(buf_.data() + kHeaderBytes, h.payload_bytes);
  std::memcpy(buf_.data(), &h, sizeof h);
  sink.write_owned(std::move(buf_));
}

Reader::Reader(Source& src, std::uint64_t program_fingerprint) {
  // One set of frame checks for every source: an in-memory source is
  // checked in place, a stream is first read to its end into owned_.
  std::string_view all;
  if (std::optional<std::string_view> view = src.read_all_view()) {
    all = *view;
  } else {
    owned_ = drain(src);
    all = owned_;
  }
  Header h{};
  ABCL_CHECK_MSG(all.size() >= sizeof h, kTruncatedHeader);
  std::memcpy(&h, all.data(), sizeof h);
  check_header(h, program_fingerprint);
  const std::size_t rest = all.size() - sizeof h;
  ABCL_CHECK_MSG(rest >= h.payload_bytes, kTruncatedPayload);
  ABCL_CHECK_MSG(rest == h.payload_bytes, kTrailing);
  payload_ = all.substr(sizeof h);
  ABCL_CHECK_MSG(checksum(payload_.data(), payload_.size()) == h.checksum,
                 "checkpoint restore: checksum mismatch (corrupt snapshot)");
}

// ---------------------------------------------------------------------------
// ABCLSIM_CHECKPOINT
// ---------------------------------------------------------------------------

bool validate_checkpoint_config(const CheckpointConfig& cfg, std::string* err) {
  if (!cfg.enabled) return true;
  if (cfg.at < 1) {
    if (err != nullptr) {
      *err = "checkpoint config: at must be >= 1 (a simulated-time boundary)";
    }
    return false;
  }
  return true;
}

std::optional<CheckpointConfig> parse_checkpoint_spec(const char* text,
                                                      std::string* err) {
  CheckpointConfig cfg;
  if (util::spec_off(text)) return cfg;  // unset or "off": no checkpoint
  const std::string raw = text;
  auto fail = [&](const std::string& why) -> std::optional<CheckpointConfig> {
    if (err != nullptr) {
      *err = util::spec_error("checkpoint spec", raw, why,
                              "expected comma-separated at=T[,path=FILE]");
    }
    return std::nullopt;
  };
  cfg.enabled = true;

  util::SpecParser p;
  p.u64("at", &cfg.at).str("path", &cfg.path);
  std::string why;
  if (!p.run(raw, &why)) return fail(why);

  std::string verr;
  if (!validate_checkpoint_config(cfg, &verr)) return fail(verr);
  return cfg;
}

std::string to_string(const CheckpointConfig& cfg) {
  if (!cfg.enabled) return "off";
  std::string out = "at=" + std::to_string(cfg.at);
  if (!cfg.path.empty()) out += ",path=" + cfg.path;
  return out;
}

}  // namespace abcl::ckpt
