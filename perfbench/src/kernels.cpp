#include "kernels.hpp"

namespace perfbench {

namespace {

/// Substitute "$N", "$M" (n - 2) and "$K" (n - 3) in a template.
std::string instantiate(const char* text, int n) {
  std::string out;
  for (const char* p = text; *p; ++p) {
    if (*p == '$' && (p[1] == 'N' || p[1] == 'M' || p[1] == 'K')) {
      const int v = p[1] == 'N' ? n : p[1] == 'M' ? n - 2 : n - 3;
      out += std::to_string(v);
      ++p;
    } else {
      out += *p;
    }
  }
  return out;
}

}  // namespace

std::string stencil_1d(int n) {
  return instantiate(R"(processors P(4)
array a($N) distribute (block:0) onto P
array b($N) distribute (block:0) onto P
array c($N) distribute (block:0) onto P
procedure main()
  do i = 1, $M
    b(i) = a(i-1) + a(i+1)
    c(i) = b(i) + a(i)
  enddo
end
)",
                     n);
}

std::string jacobi_2d(int n) {
  return instantiate(R"(processors P(2, 2)
array u($N, $N) distribute (block:0, block:1) onto P
array v($N, $N) distribute (block:0, block:1) onto P
array w($N, $N) distribute (block:0, block:1) onto P
procedure main()
  do j = 1, $M
    do i = 1, $M
      v(i, j) = u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1)
      w(i, j) = v(i, j) + u(i, j)
    enddo
  enddo
end
)",
                     n);
}

std::string sp_dhpf_style(int n) {
  return instantiate(R"(processors P(2, 2)
array u($N, $N, $N) distribute (*, block:0, block:1) onto P
array rhs($N, $N, $N) distribute (*, block:0, block:1) onto P
array rho($N, $N, $N) distribute (*, block:0, block:1) onto P
procedure main()
  do k = 1, $M
    do[independent, localize(rho)] j = 2, $K
      do i = 1, $M
        rho(i, j, k) = u(i, j, k)
      enddo
      do i = 1, $M
        rhs(i, j, k) = u(i, j-2, k) + u(i, j+2, k) + u(i, j, k-1) + u(i, j, k+1) + rho(i, j-1, k) + rho(i, j+1, k)
      enddo
    enddo
  enddo
  do k = 1, $M
    do i = 1, $M
      do j = 2, $M
        rhs(i, j, k) = rhs(i, j-1, k) + u(i, j, k)
      enddo
    enddo
  enddo
  do j = 1, $M
    do i = 1, $M
      do k = 2, $M
        rhs(i, j, k) = rhs(i, j, k-1) + u(i, j, k)
      enddo
    enddo
  enddo
  do k = 1, $M
    do j = 1, $M
      do i = 1, $M
        u(i, j, k) = u(i, j, k) + rhs(i, j, k)
      enddo
    enddo
  enddo
end
)",
                     n);
}

}  // namespace perfbench
