// Pins the process-global kernel backend for one scope and restores the
// previous one on exit, so a test's result never depends on test order
// or on the ORIGIN_BACKEND the suite was started under.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "nn/kernels/backend.hpp"

namespace origin::test_support {

class BackendScope {
 public:
  explicit BackendScope(const char* name)
      : prev_(nn::kernels::active_backend().name) {
    EXPECT_TRUE(nn::kernels::set_backend(name))
        << "backend unavailable: " << name;
  }
  ~BackendScope() { nn::kernels::set_backend(prev_); }
  BackendScope(const BackendScope&) = delete;
  BackendScope& operator=(const BackendScope&) = delete;

 private:
  std::string prev_;
};

}  // namespace origin::test_support
