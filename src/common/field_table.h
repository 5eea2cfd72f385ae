// Field tables: declare a counter struct's fields once, as a macro that
// applies its argument F to each field as F(type, name, rule). The rule
// says how two snapshots merge: sum (counters, totals), max (high-water
// marks) or any (flags). A struct's body expands BANDANA_FIELD_STRUCT for
// its members, merge() and +=, a defaulted ==, and an operator<< that
// prints every name=value. A mirror's body expands BANDANA_FIELD_MIRROR:
// one relaxed std::atomic per field under the same name, add(delta) (an
// atomic is touched only when the delta can change it) and snapshot(), in
// which each field is individually consistent and writers never stall.
#pragma once

#include <atomic>
#include <ostream>

namespace bandana::field_rule {

struct sum {
  template <class T>
  static T merge(T a, T b) { return a + b; }
  template <class T>
  static void add(std::atomic<T>& a, T v) {
    if (v) a.fetch_add(v, std::memory_order_relaxed);
  }
};

struct max {
  template <class T>
  static T merge(T a, T b) { return a < b ? b : a; }
  /// Monotonic: a smaller value never lowers the mark.
  template <class T>
  static void add(std::atomic<T>& a, T v) {
    T cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
};

struct any {
  template <class T>
  static T merge(T a, T b) { return a || b; }
  template <class T>
  static void add(std::atomic<T>& a, T v) {
    if (v) a.store(v, std::memory_order_relaxed);
  }
};

}  // namespace bandana::field_rule

#define BANDANA_FIELD_MEMBER_(type, name, rule) type name{};
#define BANDANA_FIELD_MERGE_(type, name, rule) \
  name = ::bandana::field_rule::rule::merge(name, o.name);
#define BANDANA_FIELD_PRINT_(type, name, rule) os << " " #name "=" << m.name;
#define BANDANA_FIELD_ATOMIC_(type, name, rule) std::atomic<type> name{};
#define BANDANA_FIELD_ADD_(type, name, rule) \
  ::bandana::field_rule::rule::add(name, d.name);
#define BANDANA_FIELD_LOAD_(type, name, rule) \
  m.name = name.load(std::memory_order_relaxed);

#define BANDANA_FIELD_STRUCT(Struct, TABLE)                            \
  TABLE(BANDANA_FIELD_MEMBER_)                                         \
  Struct& merge(const Struct& o) {                                     \
    TABLE(BANDANA_FIELD_MERGE_)                                        \
    return *this;                                                      \
  }                                                                    \
  Struct& operator+=(const Struct& o) { return merge(o); }             \
  bool operator==(const Struct&) const = default;                      \
  friend std::ostream& operator<<(std::ostream& os, const Struct& m) { \
    os << "{";                                                         \
    TABLE(BANDANA_FIELD_PRINT_)                                        \
    return os << " }";                                                 \
  }

#define BANDANA_FIELD_MIRROR(Struct, TABLE)               \
  TABLE(BANDANA_FIELD_ATOMIC_)                            \
  void add(const Struct& d) { TABLE(BANDANA_FIELD_ADD_) } \
  Struct snapshot() const {                               \
    Struct m;                                             \
    TABLE(BANDANA_FIELD_LOAD_)                            \
    return m;                                             \
  }
