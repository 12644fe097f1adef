/**
 * @file
 * JSON value model.
 *
 * SHARP uses JSON for experiment configurations, metric-collection specs,
 * and the CNCF Serverless Workflow subset. This is a small, dependency-free
 * document model: a Value is one of null, bool, number (double), string,
 * array, or object. Objects preserve insertion order so emitted configs
 * stay diff-friendly.
 */

#ifndef SHARP_JSON_VALUE_HH
#define SHARP_JSON_VALUE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace sharp
{
namespace json
{

class Value;

/**
 * Where a parsed value begins in its source document. Line and column
 * are 1-based; a default-constructed (0, 0) location means "unknown"
 * — values built programmatically rather than parsed carry no
 * position. Locations ride along on copies but never participate in
 * equality, so documents stay comparable across round trips.
 */
struct Location
{
    uint32_t line = 0;
    uint32_t column = 0;

    /** True when the location points into a source document. */
    bool known() const { return line != 0; }
};

/** Thrown when a Value is accessed as the wrong type. */
class TypeError : public std::runtime_error
{
  public:
    explicit TypeError(const std::string &what)
        : std::runtime_error(what) {}
};

/** The JSON type tags. */
enum class Type
{
    Null,
    Boolean,
    Number,
    String,
    Array,
    Object,
};

/** Human-readable name of a JSON type. */
const char *typeName(Type type);

/**
 * A JSON document node.
 *
 * Construction is implicit from the natural C++ types; access is via
 * checked asX() getters (throwing TypeError) plus convenience helpers
 * for object lookup with defaults.
 */
class Value
{
  public:
    using Array = std::vector<Value>;
    /** Key/value pairs in insertion order. */
    using Members = std::vector<std::pair<std::string, Value>>;

    /** Construct null. */
    Value() : tag(Type::Null) {}
    Value(std::nullptr_t) : tag(Type::Null) {}
    Value(bool value) : tag(Type::Boolean), boolValue(value) {}
    Value(int value) : tag(Type::Number), numValue(value) {}
    Value(long value)
        : tag(Type::Number), numValue(static_cast<double>(value)) {}
    Value(size_t value)
        : tag(Type::Number), numValue(static_cast<double>(value)) {}
    Value(double value) : tag(Type::Number), numValue(value) {}
    Value(const char *value) : tag(Type::String), strValue(value) {}
    Value(std::string value) : tag(Type::String), strValue(std::move(value)) {}
    Value(Array value) : tag(Type::Array), arrValue(std::move(value)) {}

    /** Make an empty object. */
    static Value makeObject();
    /** Make an empty array. */
    static Value makeArray();

    Type type() const { return tag; }
    bool isNull() const { return tag == Type::Null; }
    bool isBool() const { return tag == Type::Boolean; }
    bool isNumber() const { return tag == Type::Number; }
    bool isString() const { return tag == Type::String; }
    bool isArray() const { return tag == Type::Array; }
    bool isObject() const { return tag == Type::Object; }

    /** @return the boolean payload. @throws TypeError otherwise. */
    bool asBool() const;
    /** @return the numeric payload. @throws TypeError otherwise. */
    double asNumber() const;
    /**
     * @return the numeric payload truncated to long. @throws TypeError
     * when it is not a number or lies outside long's range.
     */
    long asLong() const;
    /** @return the string payload. @throws TypeError otherwise. */
    const std::string &asString() const;
    /** @return the array payload. @throws TypeError otherwise. */
    const Array &asArray() const;
    Array &asArray();
    /** @return the object members in insertion order. */
    const Members &members() const;

    /** Array/object element count; 0 for scalars. */
    size_t size() const;

    /** Append to an array value. @throws TypeError if not an array. */
    void append(Value value);

    /**
     * Set an object member (replacing an existing key in place).
     * @throws TypeError if not an object.
     */
    void set(const std::string &key, Value value);

    /** True if an object has member @p key. */
    bool contains(const std::string &key) const;

    /**
     * Object member access. @throws TypeError if not an object,
     * std::out_of_range if the key is missing.
     */
    const Value &at(const std::string &key) const;

    /** Object member lookup; returns nullptr when absent. */
    const Value *find(const std::string &key) const;

    /** Lookup with a default for optional config fields. */
    double getNumber(const std::string &key, double fallback) const;
    long getLong(const std::string &key, long fallback) const;
    /**
     * Exact 64-bit unsigned lookup. Accepts a decimal string (the
     * lossless encoding — numbers are doubles, which corrupt values
     * >= 2^53) or, for documents written before string seeds, a
     * non-negative number. @throws TypeError when the member is
     * present but negative or not a valid decimal.
     */
    uint64_t getUint64(const std::string &key, uint64_t fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** Deep structural equality (source locations are ignored). */
    bool operator==(const Value &other) const;
    bool operator!=(const Value &other) const { return !(*this == other); }

    /** Source position of this value's first token, if parsed. */
    const Location &location() const { return loc; }
    /** Attach a source position (used by the parser). */
    void setLocation(Location location) { loc = location; }

  private:
    Type tag;
    Location loc;
    bool boolValue = false;
    double numValue = 0.0;
    std::string strValue;
    Array arrValue;
    Members objValue;

    [[noreturn]] void typeMismatch(Type wanted) const;
};

} // namespace json
} // namespace sharp

#endif // SHARP_JSON_VALUE_HH
