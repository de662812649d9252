#ifndef HOTMAN_BSON_VALUE_H_
#define HOTMAN_BSON_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "bson/object_id.h"
#include "common/bytes.h"

namespace hotman::bson {

class Document;
class Value;

/// BSON element type tags (wire-format byte values).
enum class Type : std::uint8_t {
  kDouble = 0x01,
  kString = 0x02,
  kDocument = 0x03,
  kArray = 0x04,
  kBinary = 0x05,
  kObjectId = 0x07,
  kBool = 0x08,
  kDateTime = 0x09,
  kNull = 0x0A,
  kInt32 = 0x10,
  kInt64 = 0x12,
};

/// Human-readable name of a type tag ("double", "string", ...).
const char* TypeName(Type type);

/// BSON binary element: raw bytes plus a one-byte subtype (0 = generic,
/// matching the paper's `BinData(0, "...")` val field).
///
/// The payload is immutable and shared between copies: record values are
/// the dominant bytes in the system and flow through coordinator -> N
/// replicas -> acknowledgements, so copying Binary must be O(1).
class Binary {
 public:
  Binary() : data_(EmptyBytes()) {}
  /// Takes ownership of `data` (moved into the shared buffer).
  Binary(Bytes data, std::uint8_t subtype = 0)  // NOLINT(google-explicit-constructor)
      : data_(std::make_shared<const Bytes>(std::move(data))), subtype_(subtype) {}

  const Bytes& data() const { return *data_; }
  /// The shared buffer itself, for holders that keep the payload alive
  /// past this Binary (the cache) without copying it.
  const std::shared_ptr<const Bytes>& shared() const { return data_; }
  std::uint8_t subtype() const { return subtype_; }

  friend bool operator==(const Binary& a, const Binary& b) {
    return a.subtype_ == b.subtype_ &&
           (a.data_ == b.data_ || *a.data_ == *b.data_);
  }

 private:
  static std::shared_ptr<const Bytes> EmptyBytes() {
    static const std::shared_ptr<const Bytes>* empty =
        new std::shared_ptr<const Bytes>(std::make_shared<const Bytes>());
    return *empty;
  }

  std::shared_ptr<const Bytes> data_;
  std::uint8_t subtype_ = 0;
};

/// BSON UTC datetime: milliseconds since the Unix epoch.
struct DateTime {
  std::int64_t millis = 0;

  friend bool operator==(const DateTime& a, const DateTime& b) {
    return a.millis == b.millis;
  }
  friend auto operator<=>(const DateTime& a, const DateTime& b) {
    return a.millis <=> b.millis;
  }
};

/// Array of values (BSON encodes arrays as documents keyed "0","1",...).
using Array = std::vector<Value>;

/// One BSON value of any type. Deep-copyable and movable; nested documents
/// and arrays are owned (no aliasing between copies).
class Value {
 public:
  /// Null value.
  Value();
  Value(double v);                 // NOLINT(google-explicit-constructor)
  Value(std::string v);            // NOLINT(google-explicit-constructor)
  Value(std::string_view v);       // NOLINT(google-explicit-constructor)
  Value(const char* v);            // NOLINT(google-explicit-constructor)
  Value(bool v);                   // NOLINT(google-explicit-constructor)
  Value(std::int32_t v);           // NOLINT(google-explicit-constructor)
  Value(std::int64_t v);           // NOLINT(google-explicit-constructor)
  Value(Binary v);                 // NOLINT(google-explicit-constructor)
  Value(ObjectId v);               // NOLINT(google-explicit-constructor)
  Value(DateTime v);               // NOLINT(google-explicit-constructor)
  Value(Document v);               // NOLINT(google-explicit-constructor)
  Value(Array v);                  // NOLINT(google-explicit-constructor)

  Value(const Value& other);
  Value& operator=(const Value& other);
  Value(Value&& other) noexcept;
  Value& operator=(Value&& other) noexcept;
  ~Value();

  Type type() const;

  bool is_null() const { return type() == Type::kNull; }
  bool is_double() const { return type() == Type::kDouble; }
  bool is_string() const { return type() == Type::kString; }
  bool is_document() const { return type() == Type::kDocument; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_binary() const { return type() == Type::kBinary; }
  bool is_object_id() const { return type() == Type::kObjectId; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_datetime() const { return type() == Type::kDateTime; }
  bool is_int32() const { return type() == Type::kInt32; }
  bool is_int64() const { return type() == Type::kInt64; }
  /// True for int32, int64 and double.
  bool is_number() const;

  /// Typed accessors. Calling the wrong accessor aborts (programming error);
  /// use type() / is_*() first when the type is not statically known.
  double as_double() const;
  const std::string& as_string() const;
  const Document& as_document() const;
  Document& as_document();
  const Array& as_array() const;
  Array& as_array();
  const Binary& as_binary() const;
  ObjectId as_object_id() const;
  bool as_bool() const;
  DateTime as_datetime() const;
  std::int32_t as_int32() const;
  std::int64_t as_int64() const;

  /// Numeric value widened to double (valid for any is_number() value).
  double NumberAsDouble() const;
  /// Numeric value as int64 (truncates doubles toward zero).
  std::int64_t NumberAsInt64() const;

  /// Total order over all BSON values: first by canonical type bracket
  /// (Null < Numbers < String < Document < Array < Binary < ObjectId < Bool
  /// < DateTime), then within the bracket (numbers compare numerically
  /// across int32/int64/double). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// Canonical type bracket used by Compare (numbers share one bracket).
  int CanonicalRank() const;

  friend bool operator==(const Value& a, const Value& b) { return a.Compare(b) == 0; }
  friend bool operator!=(const Value& a, const Value& b) { return a.Compare(b) != 0; }
  friend bool operator<(const Value& a, const Value& b) { return a.Compare(b) < 0; }

 private:
  struct NullT {
    friend bool operator==(const NullT&, const NullT&) { return true; }
  };

  // Documents and arrays are held behind unique_ptr so Value can be defined
  // before Document; copy operations deep-copy the pointees.
  using Rep = std::variant<NullT, double, std::string, std::unique_ptr<Document>,
                           std::unique_ptr<Array>, Binary, ObjectId, bool, DateTime,
                           std::int32_t, std::int64_t>;

  Rep rep_;
};

}  // namespace hotman::bson

#endif  // HOTMAN_BSON_VALUE_H_
