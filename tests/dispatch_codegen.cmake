# Codegen guard of the superblock dispatcher (docs/performance.md
# "Registers"): in both run_superblocks copies, no indirect jump may be
# fed by a load from the stack in the instructions just before it (back
# to the last unconditional jump, at most `window` of them). A
# dispatcher whose op pointer lives in a stack slot (what a by-reference
# lambda capture of a soup local compiles to) reloads it there before
# every jump: `mov 0x88(%rsp),%rax; lea 0x30(%rax),%rdx;
# mov %rdx,0x88(%rsp); jmp *0x30(%rax)`.
#   cmake -DOBJDUMP=objdump -DARCHIVE=libhwst_sim.a -P dispatch_codegen.cmake
cmake_minimum_required(VERSION 3.16)
set(window 48) # instructions looked at before each jump

execute_process(COMMAND ${OBJDUMP} -d --no-show-raw-insn ${ARCHIVE}
                OUTPUT_VARIABLE dis RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d ${ARCHIVE} exited ${rc}")
endif()
# One list element per line: neutralise the characters CMake lists treat
# specially.
string(REPLACE ";" "," dis "${dis}")
string(REPLACE "[" "(" dis "${dis}")
string(REPLACE "]" ")" dis "${dis}")

# The registers an operand names, without the '%'.
function(regs_of text out)
  string(REGEX MATCHALL "%[a-z0-9]+" found "${text}")
  string(REPLACE "%" "" found "${found}")
  set(${out} "${found}" PARENT_SCOPE)
endfunction()

set(failed FALSE)
foreach(hooked 0 1)
  string(REGEX MATCH
         "\n[0-9a-f]+ <_ZN4hwst3sim15run_superblocksILb${hooked}E[^>\n]*>:\n"
         header "${dis}")
  if(header STREQUAL "")
    message(FATAL_ERROR "run_superblocks<${hooked}> not found in ${ARCHIVE}")
  endif()
  string(FIND "${dis}" "${header}" begin)
  string(SUBSTRING "${dis}" ${begin} -1 body)
  string(LENGTH "${header}" hlen)
  string(SUBSTRING "${body}" ${hlen} -1 body)
  string(FIND "${body}" "\n\n" end) # objdump ends a symbol with a blank line
  string(SUBSTRING "${body}" 0 ${end} body)
  string(REPLACE "\n" ";" lines "${body}")

  set(recent "")   # the last `window` instructions, newest first
  set(jumps 0)
  set(stack_refs 0)
  set(stack_fed 0)
  foreach(line IN LISTS lines)
    if(NOT line MATCHES "^ *[0-9a-f]+:\t(.*)$")
      continue()
    endif()
    string(STRIP "${CMAKE_MATCH_1}" insn)
    if(insn MATCHES "\\(%rsp\\)")
      math(EXPR stack_refs "${stack_refs} + 1")
    endif()
    if(insn MATCHES "^(notrack +)?jmp +\\*(.*)$")
      math(EXPR jumps "${jumps} + 1")
      set(target "${CMAKE_MATCH_2}")
      set(fed FALSE)
      if(target MATCHES "\\(%rsp\\)")
        set(fed TRUE)
      else()
        # Walk back through the registers the target is computed from;
        # it is stack-fed if one of them was loaded from the stack.
        regs_of("${target}" feeding)
        foreach(prev IN LISTS recent)
          if(NOT prev MATCHES "^([a-z]+) +(.*),%([a-z0-9]+)$")
            continue()
          endif()
          set(mnemonic "${CMAKE_MATCH_1}")
          set(src "${CMAKE_MATCH_2}")
          set(dst "${CMAKE_MATCH_3}")
          if(NOT dst IN_LIST feeding)
            continue()
          endif()
          if(src MATCHES "\\(%rsp\\)")
            set(fed TRUE)
            break()
          endif()
          if(mnemonic MATCHES "^(mov|lea)")  # dst is written, not read
            list(REMOVE_ITEM feeding ${dst})
          endif()
          regs_of("${src}" more)
          list(APPEND feeding ${more})
        endforeach()
      endif()
      if(fed)
        math(EXPR stack_fed "${stack_fed} + 1")
        list(REVERSE recent)
        string(REPLACE ";" "\n    " shown "${recent}")
        message("run_superblocks<${hooked}>: stack-fed jump:\n    ${shown}\n    ${insn}")
      endif()
    endif()
    # Control does not fall through an unconditional jump or a return,
    # so what came before one does not feed what comes after it.
    if(insn MATCHES "^(notrack +)?(jmp|ret)")
      set(recent "")
    else()
      list(INSERT recent 0 "${insn}")
      list(LENGTH recent n)
      if(n GREATER window)
        list(REMOVE_AT recent ${window})
      endif()
    endif()
  endforeach()

  message("run_superblocks<${hooked}>: ${jumps} indirect jumps, "
          "${stack_fed} stack-fed; ${stack_refs} stack references")
  if(jumps EQUAL 0)
    message(FATAL_ERROR "run_superblocks<${hooked}>: no indirect jump found")
  endif()
  if(stack_fed GREATER 0)
    set(failed TRUE)
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "the dispatcher's op pointer is carried on the stack")
endif()
