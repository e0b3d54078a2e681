#include "checks.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace gtidy {

namespace {

// ---------------------------------------------------------------- helpers

bool pathHas(const std::string& path, const std::vector<std::string>& frags) {
  for (const auto& f : frags) {
    if (path.find(f) != std::string::npos) return true;
  }
  return false;
}

bool isIdent(const Token& t, const char* text) {
  return t.kind == Tok::Identifier && t.text == text;
}

const std::set<std::string>& controlKeywords() {
  static const std::set<std::string> kw = {
      "if",     "for",    "while",   "switch",   "catch",  "return",
      "sizeof", "alignof", "decltype", "static_assert", "alignas",
      "new",    "delete", "throw",   "co_await", "co_return", "co_yield",
      "assert", "typeid", "noexcept",
      // `if constexpr (...) {` must not parse as a definition of a
      // function named "constexpr".
      "constexpr", "consteval", "constinit", "requires"};
  return kw;
}

// Token-stream cursor with bounds-safe peeking.
struct Cur {
  const std::vector<Token>& t;
  std::size_t i = 0;

  bool ok() const { return i < t.size(); }
  const Token& cur() const { return t[i]; }
  const Token* peek(std::ptrdiff_t d = 1) const {
    const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) + d;
    if (j < 0 || j >= static_cast<std::ptrdiff_t>(t.size())) return nullptr;
    return &t[static_cast<std::size_t>(j)];
  }
  bool peekIs(std::ptrdiff_t d, const char* text) const {
    const Token* p = peek(d);
    return p && p->text == text;
  }
};

// Skip a balanced <...> starting at index `i` (t[i].text == "<"). Returns
// the index just past the closing ">", or `i + 1` if it does not look like
// a template argument list (gives up after crossing a ';').
std::size_t skipAngles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  for (; j < t.size(); ++j) {
    const std::string& x = t[j].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return j + 1;
    } else if (x == ";" || x == "{") {
      break;  // not a template argument list after all
    }
  }
  return i + 1;
}

// Skip a balanced (...) starting at index `i` (t[i].text == "("). Returns
// index just past the closing ")".
std::size_t skipParens(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  for (; j < t.size(); ++j) {
    if (t[j].text == "(") ++depth;
    else if (t[j].text == ")" && --depth == 0) return j + 1;
  }
  return j;
}

// ------------------------------------------------------------ suppressions

struct Suppressions {
  // file path -> line -> rules allowed on that line (and the next).
  std::map<std::string, std::map<int, std::set<std::string>>> byFile;

  bool allows(const std::string& path, int line,
              const std::string& rule) const {
    const auto f = byFile.find(path);
    if (f == byFile.end()) return false;
    for (int l : {line, line - 1}) {
      const auto it = f->second.find(l);
      if (it != f->second.end() &&
          (it->second.count(rule) || it->second.count("*"))) {
        return true;
      }
    }
    return false;
  }
};

void collectSuppressions(const SourceFile& f, Suppressions& sup,
                         std::vector<Finding>& findings) {
  static const std::string kTag = "gcopss-tidy: allow(";
  for (const auto& [line, text] : f.comments) {
    std::size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string::npos) {
      const std::size_t open = pos + kTag.size() - 1;
      const std::size_t close = text.find(')', open);
      if (close == std::string::npos) break;
      // Parse the comma-separated rule list.
      std::set<std::string> rules;
      std::string cur;
      for (std::size_t k = open + 1; k <= close; ++k) {
        const char c = text[k];
        if (c == ',' || c == ')') {
          while (!cur.empty() && cur.front() == ' ') cur.erase(cur.begin());
          while (!cur.empty() && cur.back() == ' ') cur.pop_back();
          if (!cur.empty()) rules.insert(cur);
          cur.clear();
        } else {
          cur.push_back(c);
        }
      }
      // A suppression must carry a justification after the ')'.
      std::string rest = text.substr(close + 1);
      std::size_t content = 0;
      while (content < rest.size() &&
             (rest[content] == ' ' || rest[content] == '-' ||
              rest[content] == ':' ||
              static_cast<unsigned char>(rest[content]) > 127)) {
        ++content;  // skip separators (incl. utf-8 dashes)
      }
      bool justified = false;
      for (std::size_t k = content; k < rest.size(); ++k) {
        if (std::isalnum(static_cast<unsigned char>(rest[k]))) {
          justified = true;
          break;
        }
      }
      if (!justified) {
        findings.push_back(Finding{
            "bad-suppression", f.path, line,
            "allow() without a justification — say why the rule does not "
            "apply here"});
      } else {
        sup.byFile[f.path][line].insert(rules.begin(), rules.end());
      }
      pos = close;
    }
  }
}

// -------------------------------------------------------- rule: wallclock-rng

void checkWallclockRng(const SourceFile& f, std::vector<Finding>& out) {
  static const std::set<std::string> kClockTypes = {
      "system_clock", "steady_clock", "high_resolution_clock"};
  static const std::set<std::string> kClockCalls = {
      "gettimeofday", "clock_gettime", "timespec_get", "localtime",
      "gmtime",       "mktime",        "ftime"};
  static const std::set<std::string> kBareClockCalls = {"time", "clock"};
  static const std::set<std::string> kRngTypes = {
      "random_device", "mt19937",  "mt19937_64", "minstd_rand",
      "minstd_rand0",  "ranlux24", "ranlux48",   "knuth_b",
      "default_random_engine"};
  static const std::set<std::string> kRngCalls = {"rand", "srand", "drand48",
                                                  "srand48", "random"};

  Cur c{f.tokens};
  for (; c.ok(); ++c.i) {
    const Token& t = c.cur();
    if (t.kind != Tok::Identifier) continue;

    const Token* prev = c.peek(-1);
    const Token* next = c.peek(1);
    const bool member =
        prev && (prev->text == "." || prev->text == "->");
    static const std::set<std::string> kStmtWords = {
        "return", "throw", "else", "do", "case", "goto", "co_return",
        "co_yield", "co_await"};
    // `X::name` where X is neither std nor chrono — a project type's own
    // member, not the libc / std entity this rule bans. (`chrono` covers
    // both std::chrono::steady_clock and using-namespace'd chrono::...)
    // The qualifier must itself be an identifier forming a qualified name:
    // `return ::rand()` and `(::time(...))` are global-scope uses of the
    // banned entity, not project-namespace lookups.
    const Token* qual = c.peek(-2);
    const bool nonStdQualified =
        prev && prev->text == "::" && qual && qual->kind == Tok::Identifier &&
        !kStmtWords.count(qual->text) && qual->text != "std" &&
        qual->text != "chrono";
    // `long time() const {...}` declares a project function that merely
    // shares a libc spelling — a preceding type token (identifier, `*`,
    // `&`, `>`) marks a declarator, not a call. `return time(...)` keeps
    // counting as a call: statement keywords are not type tokens.
    const bool declLike =
        prev && ((prev->kind == Tok::Identifier && !kStmtWords.count(prev->text) &&
                  prev->text != "std") ||
                 prev->text == "*" || prev->text == "&" || prev->text == ">");
    const bool call = next && next->text == "(" && !declLike;

    if (kClockTypes.count(t.text) && !member && !nonStdQualified) {
      out.push_back(Finding{
          "wallclock-rng", f.path, t.line,
          "wall-clock source 'std::chrono::" + t.text +
              "' — sim code must derive time from Simulator (SimTime now())"});
      continue;
    }
    if (call && !member && !nonStdQualified &&
        (kClockCalls.count(t.text) || kBareClockCalls.count(t.text))) {
      out.push_back(Finding{
          "wallclock-rng", f.path, t.line,
          "wall-clock call '" + t.text +
              "()' — sim code must derive time from Simulator (SimTime "
              "now())"});
      continue;
    }
    if (kRngTypes.count(t.text) && !member && !nonStdQualified) {
      out.push_back(Finding{
          "wallclock-rng", f.path, t.line,
          "unseeded/non-replayable RNG 'std::" + t.text +
              "' — draw from common/rng.hpp (seeded SplitMix64) or a "
              "FaultPlan lane"});
      continue;
    }
    if (call && !member && !nonStdQualified && kRngCalls.count(t.text)) {
      out.push_back(Finding{
          "wallclock-rng", f.path, t.line,
          "global RNG call '" + t.text +
              "()' — draw from common/rng.hpp (seeded SplitMix64) or a "
              "FaultPlan lane"});
    }
  }
}

// ------------------------------------------------------- rule: unordered-iter

struct UnorderedIndex {
  // Variable / member names declared with an unordered container type,
  // mapped to the files that declare them.
  std::unordered_map<std::string, std::set<const SourceFile*>> vars;
  // Functions returning unordered containers by value.
  std::unordered_map<std::string, std::set<const SourceFile*>> fns;
};

bool isUnorderedType(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

void indexUnorderedDecls(const SourceFile& f, UnorderedIndex& ix) {
  const auto& t = f.tokens;
  // Pass A: local aliases (`using X = ... unordered_map<...>;`).
  std::set<std::string> aliases;
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    if (isIdent(t[i], "using") && t[i + 1].kind == Tok::Identifier &&
        t[i + 2].text == "=") {
      for (std::size_t j = i + 3; j < t.size() && t[j].text != ";"; ++j) {
        if (t[j].kind == Tok::Identifier && isUnorderedType(t[j].text)) {
          aliases.insert(t[i + 1].text);
          break;
        }
      }
    }
  }
  // Pass B: declarations. After the unordered type (or a known alias), skip
  // the template argument list, then the next identifier is the declared
  // name — unless it opens a parameter list, which makes it a function
  // returning the container by value.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::Identifier) continue;
    const bool unorderedHere = isUnorderedType(t[i].text);
    const bool aliasHere = aliases.count(t[i].text) > 0;
    if (!unorderedHere && !aliasHere) continue;
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") j = skipAngles(t, j);
    // Skip references/pointers: `const unordered_map<..>& x` iterates the
    // same underlying container, so keep indexing through & and *.
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*" ||
                            isIdent(t[j], "const"))) {
      ++j;
    }
    if (j >= t.size() || t[j].kind != Tok::Identifier) continue;
    const std::string name = t[j].text;
    const Token* after = (j + 1 < t.size()) ? &t[j + 1] : nullptr;
    if (!after) continue;
    if (after->text == "(") {
      ix.fns[name].insert(&f);
    } else if (after->text == ";" || after->text == "=" ||
               after->text == "{" || after->text == "," ||
               after->text == ")" || after->text == ":") {
      ix.vars[name].insert(&f);
    }
  }
}

// Does `user` see declarations from `decl`? True for the same file, or when
// `user` (transitively) includes it.
bool fileSees(const SourceFile& user, const SourceFile& decl,
              const std::map<std::string, const SourceFile*>& byInclude,
              std::set<const SourceFile*>& seen) {
  if (&user == &decl) return true;
  if (!seen.insert(&user).second) return false;
  for (const auto& inc : user.includes) {
    const auto it = byInclude.find(inc);
    if (it == byInclude.end()) continue;
    if (it->second == &decl) return true;
    if (fileSees(*it->second, decl, byInclude, seen)) return true;
  }
  return false;
}

void checkUnorderedIter(const std::vector<SourceFile>& files,
                        const CheckOptions& opts,
                        std::vector<Finding>& out) {
  UnorderedIndex ix;
  for (const auto& f : files) indexUnorderedDecls(f, ix);

  // Include resolution: map each analyzed file by every suffix a quoted
  // include could use ("ndn/fib.hpp" and "fib.hpp").
  std::map<std::string, const SourceFile*> byInclude;
  for (const auto& f : files) {
    const std::string& p = f.path;
    byInclude.emplace(p, &f);
    for (std::size_t pos = p.find('/'); pos != std::string::npos;
         pos = p.find('/', pos + 1)) {
      byInclude.emplace(p.substr(pos + 1), &f);
    }
  }

  auto visible = [&](const SourceFile& user, const std::string& name,
                     const std::unordered_map<
                         std::string, std::set<const SourceFile*>>& table) {
    const auto it = table.find(name);
    if (it == table.end()) return false;
    for (const SourceFile* decl : it->second) {
      std::set<const SourceFile*> seen;
      if (fileSees(user, *decl, byInclude, seen)) return true;
    }
    return false;
  };

  for (const auto& f : files) {
    if (!opts.selfTest && !pathHas(f.path, opts.unorderedRoots)) continue;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      // Range-for whose range expression mentions an unordered container.
      if (isIdent(t[i], "for") && i + 1 < t.size() && t[i + 1].text == "(") {
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = t.size();
        bool classicFor = false;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          const std::string& x = t[j].text;
          if (x == "(") ++depth;
          else if (x == ")") {
            if (--depth == 0) {
              close = j;
              break;
            }
          } else if (depth == 1 && x == ";") {
            classicFor = true;
            break;
          } else if (depth == 1 && x == ":" && colon == 0) {
            colon = j;
          }
        }
        if (!classicFor && colon != 0) {
          for (std::size_t j = colon + 1; j < close; ++j) {
            if (t[j].kind != Tok::Identifier) continue;
            const bool isVar = visible(f, t[j].text, ix.vars);
            const bool isFn = visible(f, t[j].text, ix.fns) &&
                              j + 1 < close && t[j + 1].text == "(";
            if (isVar || isFn) {
              out.push_back(Finding{
                  "unordered-iter", f.path, t[i].line,
                  "range-for over unordered container '" + t[j].text +
                      "' — iteration order is stdlib-defined and can leak "
                      "into packet/audit order; iterate a sorted snapshot "
                      "or an ordered container"});
              break;
            }
          }
        }
      }
      // Explicit iterator loop: unorderedVar.begin() / ->begin().
      if (t[i].kind == Tok::Identifier &&
          (i + 2 < t.size()) &&
          (t[i + 1].text == "." || t[i + 1].text == "->") &&
          t[i + 2].kind == Tok::Identifier &&
          (t[i + 2].text == "begin" || t[i + 2].text == "cbegin" ||
           t[i + 2].text == "rbegin") &&
          visible(f, t[i].text, ix.vars)) {
        out.push_back(Finding{
            "unordered-iter", f.path, t[i].line,
            "iterator walk over unordered container '" + t[i].text +
                "' — iteration order is stdlib-defined and can leak into "
                "packet/audit order; iterate a sorted snapshot or an "
                "ordered container"});
      }
    }
  }
}

// ----------------------------------------------------------- rule: hot-alloc

struct FnDef {
  std::string name;          // last identifier of the (qualified) name
  const SourceFile* file = nullptr;
  int line = 0;
  bool hot = false;
  bool cold = false;
  std::set<std::string> calls;
  std::vector<std::pair<int, std::string>> allocs;  // line, what
};

bool isAllocIdent(const std::string& s) {
  return s == "make_shared" || s == "make_unique" || s == "malloc" ||
         s == "calloc" || s == "realloc" || s == "aligned_alloc" ||
         s == "strdup";
}

// Extract function definitions (name, annotations, body calls and
// allocation sites) from one file.
void extractFunctions(const SourceFile& f, std::vector<FnDef>& defs) {
  const auto& t = f.tokens;
  // Statement-boundary marker: annotations (GCOPSS_HOT/GCOPSS_COLD) for a
  // definition live between the previous `;`/`{`/`}` and the definition's
  // opening `{`.
  std::size_t stmtStart = 0;

  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == ";" || x == "{" || x == "}") {
      stmtStart = i + 1;
      continue;
    }
    if (t[i].kind != Tok::Identifier || controlKeywords().count(x)) continue;
    if (i + 1 >= t.size() || t[i + 1].text != "(") continue;

    // Candidate: identifier followed by '('. Find the matching ')' and see
    // whether a '{' follows (allowing const/noexcept/trailing-return/ctor
    // init lists in between).
    const std::size_t afterParams = skipParens(t, i + 1);
    std::size_t j = afterParams;
    bool isDef = false;
    int guard = 0;
    int parenDepth = 0;
    for (; j < t.size() && guard < 96; ++j, ++guard) {
      const std::string& y = t[j].text;
      if (y == "(") ++parenDepth;
      else if (y == ")") --parenDepth;
      if (parenDepth > 0) continue;
      if (y == "{") {
        isDef = true;
        break;
      }
      if (y == ";" || y == "}" || y == "=" || y == "," || y == "]" ||
          parenDepth < 0) {
        break;
      }
    }
    if (!isDef) continue;

    FnDef d;
    d.name = x;
    d.file = &f;
    d.line = t[i].line;
    for (std::size_t k = stmtStart; k < i; ++k) {
      if (isIdent(t[k], "GCOPSS_HOT")) d.hot = true;
      if (isIdent(t[k], "GCOPSS_COLD")) d.cold = true;
    }

    // Body span: from the ctor-init-list start (right after the parameter
    // list — member initializers can allocate too) to the matching '}'.
    int depth = 0;
    std::size_t bodyEnd = t.size();
    for (std::size_t k = j; k < t.size(); ++k) {
      if (t[k].text == "{") ++depth;
      else if (t[k].text == "}" && --depth == 0) {
        bodyEnd = k;
        break;
      }
    }
    for (std::size_t k = afterParams; k < bodyEnd; ++k) {
      if (t[k].kind != Tok::Identifier) continue;
      const std::string& y = t[k].text;
      if (y == "new") {
        // Placement new constructs into storage the caller already owns —
        // not an allocation. `new (std::nothrow) T` still is one.
        if (k + 1 < bodyEnd && t[k + 1].text == "(") {
          bool nothrow = false;
          for (std::size_t q = k + 1, depth2 = 0; q < bodyEnd; ++q) {
            if (t[q].text == "(") ++depth2;
            else if (t[q].text == ")" && --depth2 == 0) break;
            else if (isIdent(t[q], "nothrow")) nothrow = true;
          }
          if (!nothrow) continue;
        }
        d.allocs.emplace_back(t[k].line, "operator new");
        continue;
      }
      if (isAllocIdent(y) &&
          k + 1 < bodyEnd &&
          (t[k + 1].text == "(" || t[k + 1].text == "<")) {
        d.allocs.emplace_back(t[k].line, y);
        continue;
      }
      // Container growth: a `.resize(` or `.reserve(` member call may
      // reallocate, whatever the container is.
      if ((y == "resize" || y == "reserve") && k + 1 < bodyEnd &&
          t[k + 1].text == "(" && (t[k - 1].text == "." || t[k - 1].text == "->")) {
        d.allocs.emplace_back(t[k].line, y + "()");
        continue;
      }
      if (k + 1 < bodyEnd && !controlKeywords().count(y)) {
        // `f(...)` and `f<T>(...)` both enter the call graph.
        if (t[k + 1].text == "(") {
          d.calls.insert(y);
        } else if (t[k + 1].text == "<") {
          const std::size_t past = skipAngles(t, k + 1);
          if (past > k + 2 && past < bodyEnd && t[past].text == "(") {
            d.calls.insert(y);
          }
        }
      }
    }

    defs.push_back(std::move(d));
    // Continue scanning after the header (nested definitions inside the
    // body are extracted on their own when the scan reaches them).
    stmtStart = j + 1;
  }
}

void checkHotAlloc(const std::vector<SourceFile>& files,
                   std::vector<Finding>& out) {
  std::vector<FnDef> defs;
  for (const auto& f : files) extractFunctions(f, defs);

  std::unordered_map<std::string, std::vector<const FnDef*>> byName;
  for (const auto& d : defs) byName[d.name].push_back(&d);

  for (const auto& root : defs) {
    if (!root.hot) continue;
    // BFS through project-defined callees; GCOPSS_COLD is a barrier.
    std::set<const FnDef*> visited;
    std::vector<std::pair<const FnDef*, std::string>> queue{
        {&root, root.name}};
    visited.insert(&root);
    while (!queue.empty()) {
      auto [d, chain] = queue.back();
      queue.pop_back();
      for (const auto& [line, what] : d->allocs) {
        out.push_back(Finding{
            "hot-alloc", d->file->path, line,
            what + " reachable from GCOPSS_HOT '" + root.name + "' (chain: " +
                chain +
                ") — hot paths must be allocation-free in steady state; "
                "pool/reserve it, or mark the deliberate growth path "
                "GCOPSS_COLD with a justification"});
      }
      for (const auto& callee : d->calls) {
        const auto it = byName.find(callee);
        if (it == byName.end()) continue;
        for (const FnDef* cd : it->second) {
          if (cd->cold || !visited.insert(cd).second) continue;
          queue.emplace_back(cd, chain + " -> " + callee);
        }
      }
    }
  }
}

// --------------------------------------------------------- rule: packet-copy

void collectPacketTypes(const std::vector<SourceFile>& files,
                        std::set<std::string>& packetTypes) {
  // struct/class NAME [final] : [public/protected/private] BASE, ... {
  std::map<std::string, std::set<std::string>> bases;
  for (const auto& f : files) {
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (!(isIdent(t[i], "struct") || isIdent(t[i], "class"))) continue;
      if (t[i + 1].kind != Tok::Identifier) continue;
      const std::string name = t[i + 1].text;
      std::size_t j = i + 2;
      if (j < t.size() && isIdent(t[j], "final")) ++j;
      if (j >= t.size() || t[j].text != ":") continue;
      for (++j; j < t.size() && t[j].text != "{" && t[j].text != ";"; ++j) {
        if (t[j].kind == Tok::Identifier &&
            !isIdent(t[j], "public") && !isIdent(t[j], "protected") &&
            !isIdent(t[j], "private") && !isIdent(t[j], "virtual")) {
          // Template bases contribute their head name; skip their args.
          bases[name].insert(t[j].text);
          if (j + 1 < t.size() && t[j + 1].text == "<") {
            j = skipAngles(t, j + 1) - 1;
          }
        }
      }
    }
  }
  packetTypes.insert("Packet");
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [name, bs] : bases) {
      if (packetTypes.count(name)) continue;
      for (const auto& b : bs) {
        if (packetTypes.count(b)) {
          packetTypes.insert(name);
          changed = true;
          break;
        }
      }
    }
  }
}

// Lines covered by a function whose name makes packet copies legitimate.
void collectCloneSpans(const SourceFile& f,
                       std::vector<std::pair<int, int>>& spans) {
  static const std::set<std::string> kCloneFns = {
      "clonePacket", "makeMutablePacket", "makePacket"};
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::Identifier || !kCloneFns.count(t[i].text)) continue;
    if (i + 1 >= t.size()) continue;
    // Definition: name, optional template args, '(' params ')' ... '{'.
    std::size_t j = i + 1;
    if (t[j].text == "<") j = skipAngles(t, j);
    if (j >= t.size() || t[j].text != "(") continue;
    j = skipParens(t, j);
    int guard = 0;
    for (; j < t.size() && guard < 32; ++j, ++guard) {
      if (t[j].text == "{") break;
      if (t[j].text == ";" || t[j].text == "=") {
        j = t.size();
        break;
      }
    }
    if (j >= t.size()) continue;
    int depth = 0;
    for (std::size_t k = j; k < t.size(); ++k) {
      if (t[k].text == "{") ++depth;
      else if (t[k].text == "}" && --depth == 0) {
        spans.emplace_back(t[i].line, t[k].line);
        break;
      }
    }
  }
}

void checkPacketCopy(const std::vector<SourceFile>& files,
                     std::vector<Finding>& out) {
  std::set<std::string> packetTypes;
  collectPacketTypes(files, packetTypes);

  for (const auto& f : files) {
    std::vector<std::pair<int, int>> cloneSpans;
    collectCloneSpans(f, cloneSpans);
    auto inCloneFn = [&](int line) {
      for (const auto& [lo, hi] : cloneSpans) {
        if (line >= lo && line <= hi) return true;
      }
      return false;
    };

    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Tok::Identifier || !packetTypes.count(t[i].text)) {
        continue;
      }
      if (inCloneFn(t[i].line)) continue;
      const Token* prev = (i > 0) ? &t[i - 1] : nullptr;
      const std::string ty = t[i].text;

      // `new T(*p)` — hand-rolled clone.
      if (prev && prev->text == "new" && i + 1 < t.size() &&
          t[i + 1].text == "(" && i + 2 < t.size() && t[i + 2].text == "*") {
        out.push_back(Finding{
            "packet-copy", f.path, t[i].line,
            "deep copy of '" + ty +
                "' via new-from-dereference — use clonePacket() / "
                "makeMutablePacket() so the copy starts a fresh refcount"});
        continue;
      }

      // `T x(*p)` / `T x{*p}` / `T x = *p` — copy-construction from deref.
      if (i + 2 < t.size() && t[i + 1].kind == Tok::Identifier &&
          !(prev && (prev->text == "new" || prev->text == "." ||
                     prev->text == "->" || prev->text == "enum" ||
                     prev->text == "struct" || prev->text == "class"))) {
        const std::string& open = t[i + 2].text;
        if ((open == "(" || open == "{" || open == "=") &&
            i + 3 < t.size() && t[i + 3].text == "*") {
          out.push_back(Finding{
              "packet-copy", f.path, t[i].line,
              "deep copy of '" + ty + "' into '" + t[i + 1].text +
                  "' — use clonePacket() / makeMutablePacket() so the copy "
                  "starts a fresh refcount"});
          continue;
        }
        // By-value parameter: `T name` directly followed by ',' or ')',
        // inside a parameter list (heuristic: previous token '(' or ',').
        if ((open == "," || open == ")") && prev &&
            (prev->text == "(" || prev->text == ",") &&
            !isIdent(t[i + 1], "final")) {
          out.push_back(Finding{
              "packet-copy", f.path, t[i].line,
              "'" + ty + "' parameter '" + t[i + 1].text +
                  "' taken by value — pass by reference or PacketPtr; a "
                  "by-value packet is a hidden deep copy (and slices)"});
          continue;
        }
      }
    }
  }
}

}  // namespace

// ------------------------------------------------------------------- driver

std::vector<Finding> runChecks(const std::vector<SourceFile>& files,
                               const CheckOptions& opts) {
  std::vector<Finding> raw;
  Suppressions sup;
  for (const auto& f : files) collectSuppressions(f, sup, raw);

  for (const auto& f : files) {
    if (opts.selfTest || !pathHas(f.path, opts.wallclockAllow)) {
      checkWallclockRng(f, raw);
    }
  }
  checkUnorderedIter(files, opts, raw);
  checkHotAlloc(files, raw);
  checkPacketCopy(files, raw);

  std::vector<Finding> out;
  for (auto& fd : raw) {
    if (fd.rule != "bad-suppression" && sup.allows(fd.path, fd.line, fd.rule)) {
      continue;
    }
    out.push_back(std::move(fd));
  }
  std::sort(out.begin(), out.end());
  // Dedup by (rule, path, line): several hot roots can reach one alloc.
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.rule == b.rule && a.path == b.path &&
                                 a.line == b.line;
                        }),
            out.end());
  return out;
}

}  // namespace gtidy
