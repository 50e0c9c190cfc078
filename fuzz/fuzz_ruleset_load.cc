// Fuzz target for rule-set deserialization: arbitrary bytes through
// ValidationService::ParseRuleSetBuffer (the pure parse behind Load — no
// service instance, no thread pool) must return an error or a fully-valid
// RuleSet — never crash, hang, or publish a half-parsed store. Every
// accepted image must also round-trip: SerializeRuleSet (Save's bytes) of
// the parsed set, parsed again, gives an equal set — the same version,
// names, rule serializations and meta, in the same order.
//
// Build with -DAV_FUZZ=ON; under clang this is a libFuzzer binary, under
// gcc it links fuzz/standalone_driver.cc and replays files given as args.
//
// Under libFuzzer (AV_FUZZ_LIBFUZZER) the harness also installs a
// structure-aware mutator: AVRULESET2 is a line framing (header, rule
// lines, AVRULEMETA1 lines) under an AVTRAIL1 whole-payload checksum, so
// byte-level mutation spends nearly all its budget failing the trailer
// check. The custom mutator strips a valid trailer, mutates at LINE
// granularity — duplicate / drop / swap / byte-mutate one line, tweak the
// header counts — and re-stamps a correct trailer, keeping the corpus deep
// inside the parser instead of stuck at its first gate.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable_file.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/validation_service.h"

namespace {

/// Appends a correct AVTRAIL1 trailer (len | PolyHash64 | magic) to `text`.
void StampTrailer(std::string& text) {
  const uint64_t len = text.size();
  const uint64_t digest = av::PolyHash64(text);
  text.append(reinterpret_cast<const char*>(&len), sizeof(len));
  text.append(reinterpret_cast<const char*>(&digest), sizeof(digest));
  text.append(av::kTrailerMagic, sizeof(av::kTrailerMagic));
}

bool SameRuleSet(const av::ValidationService::RuleSet& a,
                 const av::ValidationService::RuleSet& b) {
  if (a.version != b.version || a.rules.size() != b.rules.size()) {
    return false;
  }
  auto it = b.rules.begin();
  for (const auto& [name, entry] : a.rules) {
    const auto& [other_name, other] = *it++;
    if (name != other_name || entry.meta != other.meta ||
        entry.rule->Serialize() != other.rule->Serialize()) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  auto parsed = av::ValidationService::ParseRuleSetBuffer(bytes);
  if (!parsed.ok()) {
    (void)parsed.status().ToString();
    return 0;
  }
  std::string image = av::ValidationService::SerializeRuleSet(*parsed);
  StampTrailer(image);
  auto reparsed = av::ValidationService::ParseRuleSetBuffer(image);
  if (!reparsed.ok() || !SameRuleSet(*parsed, *reparsed)) {
    std::fprintf(stderr, "rule set does not survive a save and load: %s\n",
                 reparsed.ok() ? "entries differ"
                               : reparsed.status().ToString().c_str());
    std::abort();
  }
  return 0;
}

#if defined(AV_FUZZ_LIBFUZZER)

// Provided by the libFuzzer runtime (only linked in the libFuzzer build;
// the gcc standalone driver has no mutator entry points at all).
extern "C" size_t LLVMFuzzerMutate(uint8_t* data, size_t size,
                                   size_t max_size);

namespace {

/// Splits on '\n' (keeping empty lines — the parser sees them too).
std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) {
      if (start < text.size()) lines.emplace_back(text.substr(start));
      break;
    }
    lines.emplace_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Rewrites a `key=value` field's digits in the header line (count=/meta=/
/// version=): structurally valid headers that LIE about the body are the
/// interesting inputs for the truncation/orphan checks.
void TweakHeaderField(std::string& header, av::Rng& rng) {
  static const char* const kFields[] = {"version=", "count=", "meta="};
  const char* field = kFields[rng.Below(3)];
  const size_t pos = header.find(field);
  if (pos == std::string::npos) return;
  size_t digits = pos + std::strlen(field);
  size_t end = digits;
  while (end < header.size() && header[end] >= '0' && header[end] <= '9') {
    ++end;
  }
  header.replace(digits, end - digits, std::to_string(rng.Below(300)));
}

}  // namespace

extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned int seed) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  av::Rng rng(seed);

  // Work on the text payload: strip a valid trailer, or take the bytes
  // as-is (the mutator must also grow inputs that never had one).
  std::string_view payload = input;
  if (av::VerifyTrailer(input).ok()) {
    payload = input.substr(0, input.size() - av::kTrailerBytes);
  }
  std::vector<std::string> lines = SplitLines(payload);
  if (lines.empty()) lines.emplace_back("AVRULESET2|version=1|count=0");

  switch (rng.Below(6)) {
    case 0: {  // duplicate a line (duplicate-entry / count-mismatch states)
      const size_t i = rng.Below(lines.size());
      lines.insert(lines.begin() + static_cast<ptrdiff_t>(i), lines[i]);
      break;
    }
    case 1: {  // drop a line (truncation mid-section)
      lines.erase(lines.begin() +
                  static_cast<ptrdiff_t>(rng.Below(lines.size())));
      break;
    }
    case 2: {  // splice: swap two lines (rule/meta section reordering)
      const size_t i = rng.Below(lines.size());
      const size_t j = rng.Below(lines.size());
      std::swap(lines[i], lines[j]);
      break;
    }
    case 3:  // header count/version lies
      TweakHeaderField(lines.front(), rng);
      break;
    default: {  // byte-level mutation of ONE line, framing intact
      std::string& line = lines[rng.Below(lines.size())];
      std::vector<uint8_t> buf(line.begin(), line.end());
      buf.resize(line.size() + 16);
      const size_t n = LLVMFuzzerMutate(buf.data(), line.size(), buf.size());
      line.assign(reinterpret_cast<const char*>(buf.data()), n);
      break;
    }
  }

  std::string out;
  for (size_t i = 0; i < lines.size(); ++i) {
    out += lines[i];
    out += '\n';
  }
  StampTrailer(out);
  if (out.size() > max_size) {
    // Too big for the engine's budget: fall back to plain byte mutation.
    return LLVMFuzzerMutate(data, size, max_size);
  }
  std::memcpy(data, out.data(), out.size());
  return out.size();
}

#endif  // AV_FUZZ_LIBFUZZER
