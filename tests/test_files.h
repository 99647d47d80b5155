// Files the tests read: any file's bytes, and the committed golden corpus
// under tests/golden.

#ifndef OSPROF_TESTS_TEST_FILES_H_
#define OSPROF_TESTS_TEST_FILES_H_

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ostest {

inline const std::string kGoldenDir =
    std::string(OSPROF_SOURCE_DIR) + "/tests/golden/";

// The name of every file in tests/golden, sorted.
inline std::vector<std::string> GoldenFileNames() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(kGoldenDir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// A file's exact bytes; "" when it cannot be read.
inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace ostest

#endif  // OSPROF_TESTS_TEST_FILES_H_
