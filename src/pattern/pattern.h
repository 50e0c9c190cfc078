// The pattern language: sequences of atoms drawn from the generalization
// hierarchy of Figure 4, with a canonical human-readable string form.
//
// Grammar of the string form (round-trips through Parse/ToString):
//   <digit>{3}  <digit>+  <num>  <letter>{2}  <letter>+  <alnum>{8}  <alnum>+
//   <other>+    <any>+    and literal text ('<' and '\' escaped with '\').
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace av {

/// Kind of one pattern atom.
enum class AtomKind : uint8_t {
  kLiteral = 0,     ///< exact text (Const(...) in the paper)
  kDigitsFix = 1,   ///< <digit>{k}
  kDigitsVar = 2,   ///< <digit>+
  kNum = 3,         ///< <num>: digits optionally followed by '.' digits
  kLettersFix = 4,  ///< <letter>{k} (any case)
  kLettersVar = 5,  ///< <letter>+ (any case)
  kAlnumFix = 6,    ///< <alnum>{k}
  kAlnumVar = 7,    ///< <alnum>+
  kOtherVar = 8,    ///< <other>+ : one non-ASCII run
  kAnyVar = 9,      ///< <any>+ : one or more tokens of any class
  kLowerFix = 10,   ///< <lower>{k} : lowercase letters only
  kLowerVar = 11,   ///< <lower>+
  kUpperFix = 12,   ///< <upper>{k} : uppercase letters only
  kUpperVar = 13,   ///< <upper>+
};

/// One element of a pattern.
struct Atom {
  AtomKind kind = AtomKind::kLiteral;
  uint32_t len = 0;  ///< token length for the *Fix kinds
  std::string lit;   ///< text for kLiteral

  static Atom Literal(std::string text) {
    Atom a;
    a.kind = AtomKind::kLiteral;
    a.lit = std::move(text);
    return a;
  }
  static Atom Fixed(AtomKind kind, uint32_t len) {
    Atom a;
    a.kind = kind;
    a.len = len;
    return a;
  }
  static Atom Var(AtomKind kind) {
    Atom a;
    a.kind = kind;
    return a;
  }

  bool operator==(const Atom&) const = default;
};

/// A validation / profiling pattern: a sequence of atoms matched against the
/// token stream of a value (see matcher.h for exact semantics).
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<Atom> atoms) : atoms_(std::move(atoms)) {}

  const std::vector<Atom>& atoms() const { return atoms_; }
  std::vector<Atom>* mutable_atoms() { return &atoms_; }
  bool empty() const { return atoms_.empty(); }
  size_t size() const { return atoms_.size(); }

  /// Canonical string form; also used as the offline-index key.
  std::string ToString() const;

  /// Parses the canonical string form; rejects malformed input.
  static Result<Pattern> Parse(std::string_view text);

  /// Appends another pattern's atoms (used by vertical-cut concatenation);
  /// adjacent literal atoms are merged.
  void Append(const Pattern& other);

  /// A rough specificity score: higher = more restrictive. Used only for
  /// deterministic tie-breaking among patterns with equal FPR/coverage.
  int SpecificityScore() const;

  bool operator==(const Pattern&) const = default;

 private:
  std::vector<Atom> atoms_;
};

/// Appends one atom's canonical string-form bytes to `out`: a literal's
/// text with '<' and '\' escaped, or the atom's tag form ("<digit>{3}",
/// "<alnum>+", "<num>"). The one renderer of those bytes: ToString is a
/// loop over it, PatternKey hashes the same bytes, and the offline
/// enumerator names new index entries with the texts it renders. A merged
/// literal renders as the concatenation of its parts, so atoms rendered in
/// turn give the same bytes whether or not adjacent literals were merged.
void AppendAtomText(const Atom& a, std::string* out);

/// Canonical 64-bit interned key of a pattern: the polynomial hash of the
/// exact bytes of ToString(), folded piece by piece as the renderer
/// produces them instead of over one materialized string. The invariant
/// PatternKey(p) == PolyHash64(p.ToString()) makes pattern- and string-form
/// keys interchangeable, so the hot FMDV loop probes the index by key while
/// the on-disk format and reporting keep the readable string form. The
/// offline enumerator keys whole option sequences without a Pattern by
/// folding each option's map h -> h * PolyPow(len) + PolyHashUpdate(0, text)
/// over its rendered text (common/hash.h).
uint64_t PatternKey(const Pattern& p);

}  // namespace av
