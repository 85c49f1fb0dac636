#include "measure.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>

namespace servebench {

ProcCounters proc_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters c;
  c.task_clock_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  c.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  c.page_faults = static_cast<std::uint64_t>(ru.ru_minflt + ru.ru_majflt);
  return c;
}

std::uint64_t resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

std::string filesystem_type(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";  // ext2/3/4 share the magic
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(st.f_type));
  return hex;
}

void flush_filesystem(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)syncfs(fd);
  close(fd);
}

void release_free_heap() { malloc_trim(0); }

}  // namespace servebench
