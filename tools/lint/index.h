// Semantic index for wcds_lint (phase 1 of the two-phase analyzer).
//
// Phase 1 lexes every file once (tools/lint/lint.h, annotate_source) and
// distills it into a FileIndex: the project include edges, the module the
// file belongs to under the declared layering DAG, a conservative
// declaration table for the identifier types the determinism rules care
// about (unordered containers, raw pointers), the usage events those rules
// judge (range-for targets, .begin() receivers, relational comparisons),
// the cross-file registries (message-type enumerators and their trace-name
// cases, metric-name literals), the per-line `wcds-lint: allow(...)` sets,
// and every diagnostic the file-local rules produced.
//
// Phase 2 (Linter::run) is then a pure function of SemanticIndex + Config:
// it resolves includes against the scanned file set, walks the include
// graph for the scope-aware rules (no-unordered-iteration, no-pointer-order,
// layer-dag) and the cross-file registries, merges the file-local
// diagnostics, and applies suppressions.
//
// The index lives in memory for one run and is rebuilt from the sources
// every time: a cold lint of the whole tree takes under a tenth of a second.
#pragma once

#include <string>
#include <vector>

namespace wcds::lint {

struct Diagnostic {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// One `#include "..."` edge.  `resolved` is the repo-relative path of the
// included file when it is part of the scanned tree ("" = external header),
// computed against the registered file set by Linter::run.
struct IncludeEdge {
  int line = 0;
  std::string written;   // path as written between the quotes
  std::string resolved;  // repo-relative, or "" when not a project file
};

// A declared identifier of a type the determinism rules track.
// kind: "unordered" (std::unordered_{map,set,multimap,multiset} or a local
// alias of one), "pointer" (raw pointer object).
struct Decl {
  int line = 0;
  std::string kind;
  std::string name;
};

// A container-iteration event: a range-for over `name`, or `name.begin()` /
// `name->begin()` (how = "range-for" | "begin").  A range-for whose target
// expression spells an unordered container type inline is recorded with
// name = "-" and how = "range-for-inline" and is unconditionally unordered.
struct IterUse {
  int line = 0;
  std::string how;
  std::string name;
};

// A relational comparison (`<`, `>`, `<=`, `>=`) between two plain
// identifiers; phase 2 flags it when both sides are known raw pointers.
struct CompareUse {
  int line = 0;
  std::string lhs;
  std::string rhs;
};

// An enumerator of an `enum *MessageType` (message-type-registry).
struct EnumeratorFact {
  int line = 0;
  std::string enum_name;
  std::string name;
};

// A metric-name literal recorded through obs::Recorder (metric-doc-sync).
struct MetricFact {
  int line = 0;
  std::string name;
};

// The non-empty per-line suppression sets, post comment-line propagation.
struct LineAllow {
  int line = 0;
  std::vector<std::string> rules;  // sorted
};

struct FileIndex {
  std::string path;    // repo-relative, '/'-separated
  std::string module;  // "" = not assigned to a layered module

  std::vector<IncludeEdge> includes;
  std::vector<Decl> decls;
  std::vector<IterUse> iter_uses;
  std::vector<CompareUse> compares;
  std::vector<EnumeratorFact> enumerators;
  std::vector<std::string> named_cases;  // enumerators with a trace name
  std::vector<MetricFact> metric_uses;
  std::vector<LineAllow> allows;

  // Every diagnostic of the file-local rules; phase 2 filters them by
  // Config::enabled_rules and `allows`.
  std::vector<Diagnostic> diagnostics;
};

struct SemanticIndex {
  std::vector<FileIndex> files;  // sorted by path
};

}  // namespace wcds::lint
