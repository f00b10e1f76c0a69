#include "src/common/status.h"

namespace lt {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kPermissionDenied:
      return "PERMISSION_DENIED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kUnavailable:
      return "UNAVAILABLE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kStaleHome:
      return "STALE_HOME";
  }
  return "UNKNOWN";
}

const std::string& Status::EmptyMessage() {
  static const std::string* const empty = new std::string();
  return *empty;
}

}  // namespace lt
