// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Lightweight Status / Result<T> error-handling primitives.
//
// DepMatch library code does not throw exceptions. Fallible operations
// return a Status (for actions) or a Result<T> (for values). Both carry an
// error code and a human-readable message on failure.

#ifndef DEPMATCH_COMMON_STATUS_H_
#define DEPMATCH_COMMON_STATUS_H_

#include <cstdlib>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace depmatch {

// Broad error taxonomy, deliberately small. Codes mirror the subset of
// absl::StatusCode that a single-process analytics library needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   // caller passed something malformed
  kNotFound,          // a named entity does not exist
  kOutOfRange,        // an index or value is outside its valid domain
  kFailedPrecondition,// object state does not permit the operation
  kAlreadyExists,     // uniqueness constraint violated
  kInternal,          // invariant violation inside the library
  kUnimplemented,     // feature intentionally not available
  kResourceExhausted, // a configured limit (e.g. search budget) was hit
};

// Returns a stable, lowercase name for `code` (e.g. "invalid_argument").
std::string_view StatusCodeToString(StatusCode code);

// Value-semantic success/error indicator.
//
// [[nodiscard]] at class level: any function returning Status produces a
// value the caller must consume (check ok(), propagate, or explicitly
// void-cast with a reason). tools/depmatch_analyze enforces the same
// invariant textually so it also covers builds without warnings enabled.
class [[nodiscard]] Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Convenience constructors, mirroring absl. [[nodiscard]] individually as
// well as via the return type: constructing an error only to drop it is
// always a bug.
[[nodiscard]] Status OkStatus();
[[nodiscard]] Status InvalidArgumentError(std::string message);
[[nodiscard]] Status NotFoundError(std::string message);
[[nodiscard]] Status OutOfRangeError(std::string message);
[[nodiscard]] Status FailedPreconditionError(std::string message);
[[nodiscard]] Status AlreadyExistsError(std::string message);
[[nodiscard]] Status InternalError(std::string message);
[[nodiscard]] Status UnimplementedError(std::string message);
[[nodiscard]] Status ResourceExhaustedError(std::string message);

// Result<T>: either a value of type T or a non-OK Status.
//
// Usage:
//   Result<Table> t = LoadCsv(path);
//   if (!t.ok()) return t.status();
//   Use(t.value());
template <typename T>
class [[nodiscard]] Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work
  // inside functions returning Result<T>, mirroring absl::StatusOr.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    if (status_.ok()) {
      // A Result constructed from a Status must carry an error.
      status_ = InternalError("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  // Precondition: ok(). Aborts otherwise (library invariant violation).
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!value_.has_value()) {
      std::abort();
    }
  }

  std::optional<T> value_;
  Status status_;  // OK iff value_ is set.
};

// Propagates a non-OK status out of the enclosing function.
#define DEPMATCH_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::depmatch::Status _status = (expr);          \
    if (!_status.ok()) return _status;            \
  } while (0)

}  // namespace depmatch

#endif  // DEPMATCH_COMMON_STATUS_H_
