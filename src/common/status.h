// Lightweight status / status-or-value types used across the LITE reproduction.
//
// Modeled on absl::Status but dependency-free. Functions that can fail return
// Status (or StatusOr<T>); Status::Ok() is success. Error codes mirror the
// failure classes LITE reports to applications (permission, timeout, ...).
//
// The code is stored inline and the message out of line, shared and
// immutable: an OK Status (and an error without a message) holds a null
// message, so copying one into every Completion, WQE and StatusOr on the data
// path constructs nothing and allocates nothing. Copying an error shares its
// message.
#ifndef SRC_COMMON_STATUS_H_
#define SRC_COMMON_STATUS_H_

#include <cassert>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace lt {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kPermissionDenied,
  kResourceExhausted,
  kTimeout,
  kUnavailable,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  // The addressed node is no longer the LMR's home: the caller holds a stale
  // epoch and must re-resolve through the name service before re-issuing.
  kStaleHome,
};

const char* StatusCodeName(StatusCode code);

class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code),
        message_(message.empty() ? nullptr
                                 : std::make_shared<const std::string>(std::move(message))) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) { return Status(StatusCode::kNotFound, std::move(m)); }
  static Status AlreadyExists(std::string m) {
    return Status(StatusCode::kAlreadyExists, std::move(m));
  }
  static Status PermissionDenied(std::string m) {
    return Status(StatusCode::kPermissionDenied, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Timeout(std::string m) { return Status(StatusCode::kTimeout, std::move(m)); }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status OutOfRange(std::string m) { return Status(StatusCode::kOutOfRange, std::move(m)); }
  static Status Internal(std::string m) { return Status(StatusCode::kInternal, std::move(m)); }
  static Status StaleHome(std::string m) { return Status(StatusCode::kStaleHome, std::move(m)); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_ != nullptr ? *message_ : EmptyMessage(); }

  std::string ToString() const {
    if (ok()) {
      return "OK";
    }
    return std::string(StatusCodeName(code_)) + ": " + message();
  }

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  static const std::string& EmptyMessage();

  StatusCode code_ = StatusCode::kOk;
  std::shared_ptr<const std::string> message_;  // Null when OK or empty.
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) { return os << s.ToString(); }

// StatusOr<T>: either a value or an error status. value() asserts on error in
// debug builds (callers must check ok() on fallible paths).
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    assert(!status_.ok() && "StatusOr constructed from OK status without value");
  }
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::Ok()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const { return ok() ? *value_ : std::move(fallback); }

 private:
  Status status_;
  std::optional<T> value_;
};

#define LT_RETURN_IF_ERROR(expr)       \
  do {                                 \
    ::lt::Status _lt_st = (expr);      \
    if (!_lt_st.ok()) {                \
      return _lt_st;                   \
    }                                  \
  } while (0)

}  // namespace lt

#endif  // SRC_COMMON_STATUS_H_
