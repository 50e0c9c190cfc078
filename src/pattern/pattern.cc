#include "pattern/pattern.h"

#include <algorithm>
#include <charconv>

#include "common/hash.h"

namespace av {

namespace {

/// The fixed bytes of a non-literal atom's text: all of it for <num> and
/// the variable-length kinds, the part before the decimal length for the
/// fixed-length kinds.
std::string_view AtomHead(AtomKind k) {
  switch (k) {
    case AtomKind::kLiteral:
      return "";
    case AtomKind::kDigitsFix:
      return "<digit>{";
    case AtomKind::kDigitsVar:
      return "<digit>+";
    case AtomKind::kNum:
      return "<num>";
    case AtomKind::kLettersFix:
      return "<letter>{";
    case AtomKind::kLettersVar:
      return "<letter>+";
    case AtomKind::kLowerFix:
      return "<lower>{";
    case AtomKind::kLowerVar:
      return "<lower>+";
    case AtomKind::kUpperFix:
      return "<upper>{";
    case AtomKind::kUpperVar:
      return "<upper>+";
    case AtomKind::kAlnumFix:
      return "<alnum>{";
    case AtomKind::kAlnumVar:
      return "<alnum>+";
    case AtomKind::kOtherVar:
      return "<other>+";
    case AtomKind::kAnyVar:
      return "<any>+";
  }
  return "?";
}

bool IsFixKind(AtomKind k) {
  return k == AtomKind::kDigitsFix || k == AtomKind::kLettersFix ||
         k == AtomKind::kAlnumFix || k == AtomKind::kLowerFix ||
         k == AtomKind::kUpperFix;
}

/// Calls `piece(bytes)` for each run of atom `a`'s canonical string-form
/// bytes, in order: a literal's text in runs, with a one-byte escape piece
/// (a backslash) ahead of each '<' and backslash it holds; otherwise the
/// atom's head ("<digit>+", "<num>", "<letter>{"), then for the
/// fixed-length kinds the decimal length and '}'. The one place those bytes
/// are decided: AppendAtomText appends the pieces and PatternKey hashes
/// them.
template <class Piece>
void ForEachAtomPiece(const Atom& a, const Piece& piece) {
  if (a.kind == AtomKind::kLiteral) {
    const std::string_view lit = a.lit;
    size_t run = 0;
    for (size_t i = 0; i < lit.size(); ++i) {
      if (lit[i] == '<' || lit[i] == '\\') {
        piece(std::string_view(lit.data() + run, i - run));
        piece(std::string_view("\\", 1));
        run = i;
      }
    }
    piece(std::string_view(lit.data() + run, lit.size() - run));
    return;
  }
  piece(AtomHead(a.kind));
  if (IsFixKind(a.kind)) {
    char digits[11];  // the decimal form of any uint32_t, then '}'
    char* end = std::to_chars(digits, digits + 10, a.len).ptr;
    *end++ = '}';
    piece(std::string_view(digits, static_cast<size_t>(end - digits)));
  }
}

}  // namespace

void AppendAtomText(const Atom& a, std::string* out) {
  ForEachAtomPiece(a, [out](std::string_view bytes) { out->append(bytes); });
}

std::string Pattern::ToString() const {
  std::string out;
  for (const Atom& a : atoms_) AppendAtomText(a, &out);
  return out;
}

Result<Pattern> Pattern::Parse(std::string_view text) {
  std::vector<Atom> atoms;
  std::string lit;
  auto flush_lit = [&] {
    if (!lit.empty()) {
      atoms.push_back(Atom::Literal(lit));
      lit.clear();
    }
  };
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (c == '\\') {
      if (i + 1 >= n) {
        return Status::InvalidArgument("dangling escape in pattern");
      }
      lit.push_back(text[i + 1]);
      i += 2;
    } else if (c == '<') {
      size_t close = text.find('>', i);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated '<' in pattern");
      }
      std::string_view tag = text.substr(i + 1, close - i - 1);
      i = close + 1;
      bool var = false;
      uint32_t len = 0;
      if (i < n && text[i] == '+') {
        var = true;
        ++i;
      } else if (i < n && text[i] == '{') {
        size_t close_brace = text.find('}', i);
        if (close_brace == std::string_view::npos) {
          return Status::InvalidArgument("unterminated '{' in pattern");
        }
        std::string_view num = text.substr(i + 1, close_brace - i - 1);
        if (num.empty()) {
          return Status::InvalidArgument("empty length in pattern");
        }
        for (char d : num) {
          if (d < '0' || d > '9') {
            return Status::InvalidArgument("non-numeric length in pattern");
          }
          len = len * 10 + static_cast<uint32_t>(d - '0');
        }
        i = close_brace + 1;
      } else if (tag != "num") {
        return Status::InvalidArgument("token tag must carry '+' or '{k}'");
      }
      flush_lit();
      if (tag == "num") {
        if (var || len != 0) {
          return Status::InvalidArgument("<num> takes no quantifier");
        }
        atoms.push_back(Atom::Var(AtomKind::kNum));
      } else if (tag == "digit") {
        atoms.push_back(var ? Atom::Var(AtomKind::kDigitsVar)
                            : Atom::Fixed(AtomKind::kDigitsFix, len));
      } else if (tag == "letter") {
        atoms.push_back(var ? Atom::Var(AtomKind::kLettersVar)
                            : Atom::Fixed(AtomKind::kLettersFix, len));
      } else if (tag == "lower") {
        atoms.push_back(var ? Atom::Var(AtomKind::kLowerVar)
                            : Atom::Fixed(AtomKind::kLowerFix, len));
      } else if (tag == "upper") {
        atoms.push_back(var ? Atom::Var(AtomKind::kUpperVar)
                            : Atom::Fixed(AtomKind::kUpperFix, len));
      } else if (tag == "alnum") {
        atoms.push_back(var ? Atom::Var(AtomKind::kAlnumVar)
                            : Atom::Fixed(AtomKind::kAlnumFix, len));
      } else if (tag == "other") {
        if (!var) {
          return Status::InvalidArgument("<other> must be <other>+");
        }
        atoms.push_back(Atom::Var(AtomKind::kOtherVar));
      } else if (tag == "any") {
        if (!var) {
          return Status::InvalidArgument("<any> must be <any>+");
        }
        atoms.push_back(Atom::Var(AtomKind::kAnyVar));
      } else {
        return Status::InvalidArgument("unknown token tag <" +
                                       std::string(tag) + ">");
      }
      if (IsFixKind(atoms.back().kind) && atoms.back().len == 0) {
        return Status::InvalidArgument("fixed-length token needs length >= 1");
      }
    } else {
      lit.push_back(c);
      ++i;
    }
  }
  flush_lit();
  return Pattern(std::move(atoms));
}

void Pattern::Append(const Pattern& other) {
  for (const Atom& a : other.atoms_) {
    if (a.kind == AtomKind::kLiteral && !atoms_.empty() &&
        atoms_.back().kind == AtomKind::kLiteral) {
      atoms_.back().lit += a.lit;
    } else {
      atoms_.push_back(a);
    }
  }
}

int Pattern::SpecificityScore() const {
  int score = 0;
  for (const Atom& a : atoms_) {
    switch (a.kind) {
      case AtomKind::kLiteral:
        // Constants are the most specific rung; weight per covered character
        // so splitting a literal across atoms never looks more specific.
        score += 4 + 4 * static_cast<int>(std::min<size_t>(a.lit.size(), 32));
        break;
      case AtomKind::kLowerFix:
      case AtomKind::kUpperFix:
        score += 5;
        break;
      case AtomKind::kDigitsFix:
      case AtomKind::kLettersFix:
        score += 4;
        break;
      case AtomKind::kAlnumFix:
      case AtomKind::kLowerVar:
      case AtomKind::kUpperVar:
        score += 3;
        break;
      case AtomKind::kDigitsVar:
      case AtomKind::kLettersVar:
      case AtomKind::kNum:
        score += 2;
        break;
      case AtomKind::kAlnumVar:
      case AtomKind::kOtherVar:
        score += 1;
        break;
      case AtomKind::kAnyVar:
        score += 0;
        break;
    }
  }
  return score;
}

uint64_t PatternKey(const Pattern& p) {
  uint64_t h = kPolySeed;
  for (const Atom& a : p.atoms()) {
    ForEachAtomPiece(a, [&h](std::string_view bytes) {
      h = PolyHashUpdate(h, bytes);
    });
  }
  return h;
}

}  // namespace av
