#pragma once
/// \file model.hpp
/// Whole-project source model for hdtest-tidy: function definitions,
/// HDTEST_HOT_PATH annotations, and a name-resolved call graph.
///
/// Resolution is deliberately an over-approximation: calls are matched to
/// every project function sharing the unqualified name (overloads and
/// same-named methods conflate), which can pull a function into the hot set
/// that overload resolution would not. That errs on the side of reporting —
/// a conflated finding is silenced with a justified NOLINT, while a missed
/// dense materialization would defeat the contract. Calls the model cannot
/// see (function pointers, virtual dispatch to types outside the scanned
/// set) are covered by annotating the concrete implementations directly.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace hdtest::tidy {

struct FunctionDef {
  std::string name;       ///< unqualified name
  std::string qualifier;  ///< textual qualifier before the name ("Foo::"), may be empty
  const LexedFile* file = nullptr;
  int line = 0;                 ///< line of the name token
  std::size_t body_begin = 0;   ///< token index of '{'
  std::size_t body_end = 0;     ///< token index one past the matching '}'
  bool annotated_hot = false;   ///< HDTEST_HOT_PATH on this definition
  std::vector<std::string> callees;  ///< unqualified names called in the body
};

class SourceModel {
 public:
  /// Adds one lexed file to the model (extracts definitions and annotated
  /// declaration names).
  void add_file(const LexedFile& file);

  [[nodiscard]] const std::vector<FunctionDef>& definitions() const noexcept {
    return defs_;
  }

  /// Names carrying HDTEST_HOT_PATH on any declaration or definition.
  [[nodiscard]] const std::set<std::string>& hot_roots() const noexcept {
    return hot_names_;
  }

  /// Transitive closure of the hot roots over the name-resolved call graph.
  /// Returns, for every reachable definition, the name of one function that
  /// pulled it into the hot set (empty for the annotated roots themselves).
  [[nodiscard]] std::map<const FunctionDef*, std::string> hot_closure() const;

 private:
  std::vector<FunctionDef> defs_;
  std::set<std::string> hot_names_;
};

}  // namespace hdtest::tidy
