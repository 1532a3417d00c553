// Seeded violations: parser/documentation verb drift (2 findings) and
// number formatting outside std::to_chars (3 findings).
// Parses {quit, ping}; the fixture DESIGN.md documents {quit, stats}:
// 'ping' is parsed-but-undocumented, 'stats' documented-but-unparsed.
// FormatCount writes numbers with snprintf, std::to_string and a string
// stream (protocol-format); the std::to_chars call and the snprintf in
// this comment must pass.

namespace fixture {

int Parse(const std::string& head) {
  if (head == "quit") return 0;
  if (head == "ping") return 1;
  return -1;
}

std::string FormatCount(std::uint64_t n) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lu", n);
  std::string out = buf;
  out += std::to_string(n);
  std::ostringstream os;
  std::to_chars(buf, buf + sizeof(buf), n);
  return out;
}

}  // namespace fixture
