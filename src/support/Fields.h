//===- Fields.h - One field list per struct ---------------------*- C++ -*-===//
//
// Part of the Trident-SRP reproduction (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A struct whose fields leave the program (stats exported as registry
/// counters, configs folded into the memo-cache fingerprint) lists them
/// once, beside its declaration, as `static constexpr auto fields()`
/// returning a tuple of Field rows. Its consumers (StatRegistry::
/// setCounters, HwPfStats::of, configFingerprint) walk that list through
/// forEachField, which fails to compile unless the list names every field
/// of the struct exactly once: a field added without a row, or a row
/// dropped, is a build error rather than a counter missing from the golden
/// JSONL or two experiments sharing one memo entry.
///
//===----------------------------------------------------------------------===//

#ifndef TRIDENT_SUPPORT_FIELDS_H
#define TRIDENT_SUPPORT_FIELDS_H

#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

namespace trident {

/// One row of a field list: a member of \p S and the name it leaves the
/// program under. A null name lists a field that no consumer exports.
template <typename S, typename T> struct Field {
  const char *Name;
  T S::*Member;
};

template <typename S>
concept HasFields = requires { S::fields(); };

namespace fields_detail {

/// Converts to any type, so S{AnyField{}...} probes how many initializers
/// the aggregate S takes: one per field.
struct AnyField {
  template <typename T> operator T() const;
};

template <typename S, size_t N = 0> constexpr size_t aggregateArity() {
  constexpr bool TakesOneMore = []<size_t... I>(std::index_sequence<I...>) {
    return requires { S{(void(I), AnyField{})...}; };
  }(std::make_index_sequence<N + 1>{});
  if constexpr (TakesOneMore)
    return aggregateArity<S, N + 1>();
  else
    return N;
}

/// True when no two rows of \p Rows name the same member.
template <typename RowsT> constexpr bool distinctMembers(const RowsT &Rows) {
  return std::apply(
      [](const auto &...Row) {
        auto Uses = [&](const auto &X) {
          auto Same = [&](const auto &Y) {
            if constexpr (std::is_same_v<decltype(X), decltype(Y)>)
              return X.Member == Y.Member;
            return false;
          };
          return (size_t{0} + ... + size_t{Same(Row)});
        };
        return ((Uses(Row) == 1) && ...);
      },
      Rows);
}

} // namespace fields_detail

/// Calls \p Fn on each row of S's field list, in list order.
template <HasFields S, typename FnT> void forEachField(FnT &&Fn) {
  static constexpr auto Rows = S::fields();
  static_assert(std::tuple_size_v<decltype(Rows)> ==
                    fields_detail::aggregateArity<S>(),
                "the field list must name every field of the struct");
  static_assert(fields_detail::distinctMembers(Rows),
                "the field list names one field twice");
  std::apply([&](const auto &...Row) { (Fn(Row), ...); }, Rows);
}

} // namespace trident

#endif // TRIDENT_SUPPORT_FIELDS_H
